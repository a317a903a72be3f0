//go:build !race

package server

// raceEnabled is set when the race detector is on.
const raceEnabled = false
