//go:build !race

package fusion

// raceEnabled is set when the race detector is on (see race_test.go).
const raceEnabled = false
