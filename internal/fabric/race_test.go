//go:build race

package fabric

// raceEnabled is set when the race detector is on, which changes
// allocation counts.
const raceEnabled = true
