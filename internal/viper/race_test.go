//go:build race

package viper

// raceEnabled is set when the race detector is on.
const raceEnabled = true
