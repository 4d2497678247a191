//go:build !race

package pack_test

// raceEnabled is set when the race detector is on (see race_test.go).
const raceEnabled = false
