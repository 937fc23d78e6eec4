//go:build !race

package verifier

const raceEnabled = false
