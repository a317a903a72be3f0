package flat

import (
	"sort"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
)

type flatIndex interface {
	index.Index
	index.BatchGetter
	index.Ranger
	index.DepthReporter
	index.RetrainReporter
}

// parityIndexes returns both models, plain and behind a delta buffer
// small enough that the held-out inserts cross several rebuilds.
func parityIndexes(threshold int) []flatIndex {
	return []flatIndex{
		NewRMI(RMIConfig{}),
		NewRS(RSConfig{}),
		NewDelta(NewRMI(RMIConfig{}), DeltaConfig{Threshold: threshold}),
		NewDelta(NewRS(RSConfig{}), DeltaConfig{Threshold: threshold}),
	}
}

// fill loads keys into ix with value 3k+1: a plain index bulk-loads them
// all, a delta index bulk-loads most and takes the rest through Insert.
func fill(t *testing.T, ix flatIndex, keys []uint64) {
	t.Helper()
	load, held := keys, []uint64(nil)
	if _, ok := ix.(index.Deleter); ok {
		load, held = dataset.Split(keys, len(keys)/10)
	}
	vals := make([]uint64, len(load))
	for i, k := range load {
		vals[i] = 3*k + 1
	}
	if err := ix.BulkLoad(load, vals); err != nil {
		t.Fatal(err)
	}
	for _, k := range held {
		if err := ix.Insert(k, 3*k+1); err != nil {
			t.Fatal(err)
		}
	}
}

// parityProbes returns every key, its neighbours, the midpoint to the
// next key, and the ends of the key space.
func parityProbes(keys []uint64) []uint64 {
	probes := []uint64{0, 1, ^uint64(0) - 1, ^uint64(0), keys[0] - 1, keys[len(keys)-1] + 1}
	for i, k := range keys {
		probes = append(probes, k, k-1, k+1)
		if i+1 < len(keys) {
			probes = append(probes, k+(keys[i+1]-k)/2)
		}
	}
	return probes
}

// TestParityWithOracle: Get, GetBatch and Range(start) answer like a
// sort.Search oracle over the keys, for both models, plain and delta,
// on three distributions with and without the ends of the key space
// loaded; probes include keys below the minimum and above the maximum.
func TestParityWithOracle(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.YCSBNormal, dataset.OSMLike, dataset.FACELike} {
		for _, ends := range []bool{false, true} {
			keys := dataset.Generate(kind, 8000, 5)
			if ends {
				keys = dataset.SortedUnique(append([]uint64{0, ^uint64(0)}, keys...))
			}
			probes := parityProbes(keys)
			oracle := func(p uint64) (int, bool) {
				i := sort.Search(len(keys), func(i int) bool { return keys[i] >= p })
				return i, i < len(keys) && keys[i] == p
			}
			for _, ix := range parityIndexes(64) {
				fill(t, ix, keys)
				name := ix.Name() + "/" + kind.String()
				if ends {
					name += "+ends"
				}
				vals, found := make([]uint64, len(probes)), make([]bool, len(probes))
				ix.GetBatch(probes, vals, found)
				gotK, gotV := make([]uint64, 5), make([]uint64, 5)
				for j, p := range probes {
					i, ok := oracle(p)
					want := uint64(0)
					if ok {
						want = 3*p + 1
					}
					if v, got := ix.Get(p); got != ok || v != want {
						t.Fatalf("%s: Get(%d) = %d,%v, want %d,%v", name, p, v, got, want, ok)
					}
					if found[j] != ok || vals[j] != want {
						t.Fatalf("%s: GetBatch(%d) = %d,%v, want %d,%v", name, p, vals[j], found[j], want, ok)
					}
					if j%5 != 0 {
						continue
					}
					c := ix.Range(p)
					n := c.Next(gotK, gotV)
					c.Close()
					if wantN := min(len(gotK), len(keys)-i); n != wantN {
						t.Fatalf("%s: Range(%d) gave %d entries, want %d", name, p, n, wantN)
					}
					for e := 0; e < n; e++ {
						if gotK[e] != keys[i+e] || gotV[e] != 3*keys[i+e]+1 {
							t.Fatalf("%s: Range(%d)[%d] = (%d,%d), want key %d", name, p, e, gotK[e], gotV[e], keys[i+e])
						}
					}
				}
			}
		}
	}
}

// TestFootprintPinned: one seeded load (OSM-like, registry defaults, a
// delta index taking a tenth of the keys through Insert) reports the
// Sizes, AvgDepth and retrain count the separate rmi, rs and rebuild
// packages reported before they merged.
func TestFootprintPinned(t *testing.T) {
	want := map[string]struct {
		sizes    index.Sizes
		retrains int64
	}{
		"rmi":       {index.Sizes{Structure: 6744, Keys: 432000, Values: 432000}, 1},
		"rs":        {index.Sizes{Structure: 134884, Keys: 432000, Values: 432000}, 1},
		"rmi-delta": {index.Sizes{Structure: 9160, Keys: 480000, Values: 480000}, 1},
		"rs-delta":  {index.Sizes{Structure: 137012, Keys: 480000, Values: 480000}, 1},
	}
	keys := dataset.Generate(dataset.OSMLike, 60000, 7)
	load, held := dataset.Split(keys, 6000)
	for _, ix := range parityIndexes(0) {
		if err := ix.BulkLoad(load, load); err != nil {
			t.Fatal(err)
		}
		if _, ok := ix.(index.Deleter); ok {
			for _, k := range held {
				if err := ix.Insert(k, k^1); err != nil {
					t.Fatal(err)
				}
			}
		}
		w := want[ix.Name()]
		n, _ := ix.RetrainStats()
		if got := ix.Sizes(); got != w.sizes || ix.AvgDepth() != 2 || n != w.retrains {
			t.Errorf("%s: Sizes %+v, AvgDepth %v, retrains %d; want %+v, 2, %d", ix.Name(), got, ix.AvgDepth(), n, w.sizes, w.retrains)
		}
	}
}
