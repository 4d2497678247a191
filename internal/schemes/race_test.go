//go:build race

package schemes_test

// raceEnabled is set when the race detector is on. It drops sync.Pool
// items at random, so a warm path that reuses pooled lists allocates.
const raceEnabled = true
