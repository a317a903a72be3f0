package fitting

import (
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/retrain"
	"learnedpieces/internal/workload"
)

// TestDrainConverges checks that after an insert-heavy phase,
// DrainRetrains leaves the same bounded structure the inline path
// maintains: no live leaf holds a buffer at or past Reserve, and no
// in-place leaf carries a search window wider than eps plus the slots
// it absorbed since its last rebuild. A backlogged async pool lets live
// leaves run far past both bounds mid-flight; the drain loop has to
// install and replay until the excess is retrained away, not merely
// wait for the queue to empty.
func TestDrainConverges(t *testing.T) {
	const n = 50000
	keys := dataset.Generate(dataset.YCSBNormal, n, 42)
	var load, inserts []uint64
	for i, k := range keys {
		if i%4 == 0 {
			load = append(load, k)
		} else {
			inserts = append(inserts, k)
		}
	}
	ops := workload.InsertStream(inserts, 44)
	for _, mode := range []Mode{Inplace, Buffer} {
		for _, workers := range []int{0, 1, 4} {
			cfg := Config{Mode: mode, Eps: 32, Reserve: 64}
			ix := New(cfg)
			if workers > 0 {
				ix.SetRetrainPool(retrain.NewPool(workers, 0))
			}
			if err := ix.BulkLoad(load, load); err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				if err := ix.Insert(op.Key, op.Key); err != nil {
					t.Fatal(err)
				}
			}
			ix.DrainRetrains()
			for id, l := range ix.leaves {
				v, ok := ix.inner.Get(l.FirstKey)
				if !ok || v != uint64(id) {
					continue // retired leaf, kept only for stable ids
				}
				if len(l.bufK) >= cfg.Reserve {
					t.Errorf("mode=%v workers=%d: live leaf buffer %d >= Reserve %d after drain",
						mode, workers, len(l.bufK), cfg.Reserve)
				}
				if l.maxErr > cfg.Eps+cfg.Reserve {
					t.Errorf("mode=%v workers=%d: live leaf maxErr %d > eps+Reserve %d after drain",
						mode, workers, l.maxErr, cfg.Eps+cfg.Reserve)
				}
			}
			if got := ix.Len(); got != n {
				t.Fatalf("mode=%v workers=%d: Len=%d want %d", mode, workers, got, n)
			}
		}
	}
}
