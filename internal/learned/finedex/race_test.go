//go:build race

package finedex

// raceEnabled is set when the race detector is on.
const raceEnabled = true
