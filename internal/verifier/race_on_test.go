//go:build race

package verifier

const raceEnabled = true
