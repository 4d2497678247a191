//go:build !race

package schemes_test

// raceEnabled is set when the race detector is on (see race_test.go).
const raceEnabled = false
