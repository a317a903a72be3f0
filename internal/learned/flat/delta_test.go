package flat

import (
	"fmt"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
	"learnedpieces/internal/pla"
	"learnedpieces/internal/retrain"
)

func newIx(threshold int) *Delta[*pla.RMI] {
	return NewDelta(NewRMI(RMIConfig{NumLeaves: 4}), DeltaConfig{Threshold: threshold})
}

// TestConformance runs the full suite over both inner indexes with a
// threshold small enough that every case crosses many rebuilds; the
// registry's 4096 rarely fills on the suite's datasets.
func TestConformance(t *testing.T) {
	indextest.Run(t, "rmi-delta", func() index.Index { return newIx(16) })
	indextest.Run(t, "rs-delta", func() index.Index {
		return NewDelta(NewRS(RSConfig{}), DeltaConfig{Threshold: 16})
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

// TestDrainConverges: writes that outran a busy pool leave the buffer far
// past Threshold, and DrainRetrains rebuilds until it is below again.
func TestDrainConverges(t *testing.T) {
	ix := NewDelta(NewRMI(RMIConfig{}), DeltaConfig{Threshold: 256})
	indextest.RunDrainConverges(t, ix, 256, func() int { return len(ix.buf.Live.Keys) })
}

// TestGetBatchAllocatesNothing: with the live buffer and a frozen one
// both holding entries (live values, a tombstone, an overwrite of a
// base key), a batch lookup agrees with Get and allocates nothing.
func TestGetBatchAllocatesNothing(t *testing.T) {
	pool := retrain.NewPool(1, 0)
	defer pool.Close()
	gate, started := make(chan struct{}), make(chan struct{})
	pool.Submit("blocker", func() { close(started); <-gate })
	<-started
	defer close(gate)

	ix := newIx(16)
	ix.SetRetrainPool(pool)
	load, held := dataset.Split(dataset.Generate(dataset.YCSBNormal, 2000, 61), 40)
	if err := ix.BulkLoad(load, load); err != nil {
		t.Fatal(err)
	}
	for _, k := range held { // 16 freeze behind the busy worker, 24 stay live
		if err := ix.Insert(k, k^1); err != nil {
			t.Fatal(err)
		}
	}
	ix.Delete(held[3])
	ix.Delete(load[7])
	if err := ix.Insert(load[9], 9); err != nil {
		t.Fatal(err)
	}
	if len(ix.buf.Live.Keys) == 0 || len(ix.buf.Frozen.Keys) == 0 {
		t.Fatalf("buffers live=%d frozen=%d, want both non-empty", len(ix.buf.Live.Keys), len(ix.buf.Frozen.Keys))
	}
	keys := append(append([]uint64{0, ^uint64(0)}, held...), load[:60]...)
	vals, found := make([]uint64, len(keys)), make([]bool, len(keys))
	if n := testing.AllocsPerRun(50, func() { ix.GetBatch(keys, vals, found) }); n != 0 {
		t.Fatalf("GetBatch allocates %.1f times per call", n)
	}
	for i, k := range keys {
		if v, ok := ix.Get(k); found[i] != ok || vals[i] != v {
			t.Fatalf("GetBatch(%d) = %d,%v; Get = %d,%v", k, vals[i], found[i], v, ok)
		}
	}
}
