//go:build !race

package rma_test

// raceEnabled is set when the race detector is on (see race_test.go).
const raceEnabled = false
