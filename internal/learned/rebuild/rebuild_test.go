package rebuild

import (
	"fmt"
	"testing"

	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
	"learnedpieces/internal/learned/rmi"
	"learnedpieces/internal/learned/rs"
)

func newIx(threshold int) *Index {
	return New("rmi-delta", Config{Threshold: threshold},
		func() Inner { return rmi.New(rmi.Config{NumLeaves: 4}) })
}

// TestConformance runs the full suite over both inner indexes with a
// threshold small enough that every case crosses many rebuilds; the
// registry's 4096 rarely fills on the suite's datasets.
func TestConformance(t *testing.T) {
	indextest.RunAll(t, "rmi-delta", func() index.Index { return newIx(16) })
	indextest.RunAll(t, "rs-delta", func() index.Index {
		return New("rs-delta", Config{Threshold: 16},
			func() Inner { return rs.New(rs.DefaultConfig()) })
	})
}

// TestThresholdTriggersRebuild: the configured threshold is the buffer
// size at which the first rebuild runs, and Threshold <= 0 picks 4096.
func TestThresholdTriggersRebuild(t *testing.T) {
	for _, tc := range []struct{ cfg, want int }{
		{1, 1}, {4, 4}, {64, 64}, {0, 4096}, {-3, 4096},
	} {
		t.Run(fmt.Sprintf("threshold=%d", tc.cfg), func(t *testing.T) {
			ix := newIx(tc.cfg)
			for k := uint64(1); k < uint64(tc.want); k++ {
				if err := ix.Insert(k, k*10); err != nil {
					t.Fatal(err)
				}
			}
			if n, _ := ix.RetrainStats(); n != 0 {
				t.Fatalf("%d rebuilds with %d of %d buffered", n, tc.want-1, tc.want)
			}
			if err := ix.Insert(uint64(tc.want), uint64(tc.want)*10); err != nil {
				t.Fatal(err)
			}
			if n, _ := ix.RetrainStats(); n != 1 {
				t.Fatalf("%d rebuilds once the buffer reached %d, want 1", n, tc.want)
			}
			if ix.Len() != tc.want {
				t.Fatalf("Len = %d, want %d", ix.Len(), tc.want)
			}
			for k := uint64(1); k <= uint64(tc.want); k++ {
				if v, ok := ix.Get(k); !ok || v != k*10 {
					t.Fatalf("key %d after the rebuild: (%d,%v)", k, v, ok)
				}
			}
		})
	}
}
