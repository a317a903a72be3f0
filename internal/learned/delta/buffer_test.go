package delta

import (
	"testing"

	"learnedpieces/internal/retrain"
)

// mapBase is a Base over a map; fold merges a frozen run into a copy.
type mapBase map[uint64]uint64

func (m mapBase) Get(key uint64) (uint64, bool) {
	v, ok := m[key]
	return v, ok
}

func fold(frozen Run, base mapBase) mapBase {
	out := make(mapBase, len(base)+len(frozen.Keys))
	for k, v := range base {
		out[k] = v
	}
	for i, k := range frozen.Keys {
		if frozen.Dead[i] {
			delete(out, k)
		} else {
			out[k] = frozen.Vals[i]
		}
	}
	return out
}

// TestBufferLoadVoidsPendingRetrain: a retrain still queued when Load
// replaces the base is built but never installed, and the drain after it
// leaves exactly what Load put there.
func TestBufferLoadVoidsPendingRetrain(t *testing.T) {
	pool := retrain.NewPool(1, 0)
	defer pool.Close()
	gate, started := make(chan struct{}), make(chan struct{})
	pool.Submit("blocker", func() { close(started); <-gate })
	<-started

	var b Buffer[mapBase]
	b.Init(4, fold)
	b.SetPool(pool)
	b.Load(mapBase{1: 10}, 1)
	for k := uint64(2); k <= 5; k++ { // the fourth write freezes the run
		if b.Upsert(k, k*10, false) {
			t.Fatalf("key %d reported live before its first write", k)
		}
	}
	if !b.Upsert(1, 0, true) || b.Len() != 4 {
		t.Fatalf("delete of a base key: Len = %d, want 4", b.Len())
	}
	if len(b.Frozen.Keys) != 4 || !b.aside.InFlight(&b) {
		t.Fatalf("frozen %d entries, in flight %v: want 4 behind the busy worker", len(b.Frozen.Keys), b.aside.InFlight(&b))
	}
	b.Load(mapBase{7: 70}, 1)
	close(gate)
	b.Drain()
	if n, _ := b.RetrainStats(); n != 1 {
		t.Fatalf("%d retrains ran, want the voided one", n)
	}
	if len(b.Base) != 1 || b.Len() != 1 || len(b.Live.Keys)+len(b.Frozen.Keys) != 0 {
		t.Fatalf("after the drain: base %v, Len %d, live %d, frozen %d", b.Base, b.Len(), len(b.Live.Keys), len(b.Frozen.Keys))
	}
	if v, ok := b.Get(7); !ok || v != 70 {
		t.Fatalf("Get(7) = %d,%v", v, ok)
	}
	for _, k := range []uint64{1, 2, 5} {
		if _, ok := b.Get(k); ok {
			t.Fatalf("key %d from before the Load is readable", k)
		}
	}
}
