//go:build race

package pgm

// raceEnabled is set when the race detector is on.
const raceEnabled = true
