package core

import (
	"testing"

	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
)

// TestAsyncRetrainEquivalence runs the inline-vs-async retraining
// property over every registry index that opts into background
// retraining: identical reads after identical writes, regardless of
// where the retrains ran.
func TestAsyncRetrainEquivalence(t *testing.T) {
	for _, e := range Registry() {
		if !index.CapsOf(e.New()).AsyncRetrain {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			indextest.Run(t, e.Name, e.New, indextest.Async...)
		})
	}
}

// gapCell is an ALEX-like cell: gapped leaves of segLen keys under a
// B+tree, whose rebuild is in flight while a full leaf is rebuilt on the
// spot.
func gapCell(segLen int) *Composed {
	return Compose(LSAGap{SegLen: segLen}, NewBTreeTop(), GapInsert{}, ExpandOrSplit{MaxLeafKeys: 1024})
}

func TestAsyncRetrainEquivalenceGapCell(t *testing.T) {
	indextest.Run(t, "gap-cell", func() index.Index { return gapCell(256) }, indextest.Async...)
}

// TestComposedDrainConverges: behind a busy pool each strategy's leaves
// run past their retrain trigger — a buffer grows past Size, an in-place
// leaf regrows past its reserve, gapped leaves wait over the density
// bound — and DrainRetrains must retrain until none does.
func TestComposedDrainConverges(t *testing.T) {
	t.Run("fiting-buf", func(t *testing.T) {
		c := preset("fiting-buf")
		indextest.RunDrainConverges(t, c, 256, func() int {
			most := 0
			for _, l := range c.leaves {
				most = max(most, len(l.Buf.Keys))
			}
			return most
		})
	})
	t.Run("fiting-inp", func(t *testing.T) {
		// An in-place leaf's window widens by one per absorbed key.
		c := preset("fiting-inp")
		indextest.RunDrainConverges(t, c, 256+1, func() int {
			most := 0
			for _, l := range c.leaves {
				most = max(most, l.MaxErr-32)
			}
			return most
		})
	})
	t.Run("gap-cell", func(t *testing.T) {
		// A gapped leaf cannot grow: it absorbs writes into its gaps and is
		// rebuilt on the spot when full, so what waits on the pool is the
		// op log of the rebuilds in flight. A full leaf's log is dropped
		// with its rebuild, so the leaves hold 512 keys: at 256 every leaf
		// the held pool queues fills before the stream ends, and no rebuild
		// in flight is left to hold a write.
		c := gapCell(512)
		indextest.RunDrainConverges(t, c, 1, c.aside.Logged)
	})
}
