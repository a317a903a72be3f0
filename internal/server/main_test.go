package server

import (
	"fmt"
	"os"
	"testing"

	"learnedpieces/internal/epoch"
)

// TestMain fails the package when a test left an epoch pin behind. Once
// every test has finished no reader is inside a critical section, so two
// successive advances must succeed: a leaked pin lets the first through
// (it sits at the current epoch) and stops the second.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && !(epoch.Advance() && epoch.Advance()) {
		fmt.Fprintln(os.Stderr, "epoch pin leaked by a test")
		code = 1
	}
	os.Exit(code)
}
