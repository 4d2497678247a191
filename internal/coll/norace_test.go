//go:build !race

package coll_test

// raceEnabled is set when the race detector is on (see race_test.go).
const raceEnabled = false
