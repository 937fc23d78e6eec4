//go:build !race

package mcauth

const raceEnabled = false
