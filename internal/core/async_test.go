package core

import (
	"testing"

	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
)

// TestAsyncRetrainEquivalence runs the inline-vs-async retraining
// property over every registry index that opts into background
// retraining: identical reads after identical writes, regardless of
// where the retrains ran. Indexes without the capability are skipped
// by the helper.
func TestAsyncRetrainEquivalence(t *testing.T) {
	for _, e := range Registry() {
		e := e
		if _, ok := e.New().(index.AsyncRetrainer); !ok {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			indextest.RunAsyncEquivalence(t, e.Name, e.New)
		})
	}
}
