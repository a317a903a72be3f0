package pla

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"learnedpieces/internal/dataset"
)

// segErrTolerance is the slack allowed over the nominal eps guarantee to
// absorb float64 rounding at segment boundaries.
const segErrTolerance = 2

func randKeys(rng *rand.Rand, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		keys = append(keys, rng.Uint64())
		keys = dataset.SortedUnique(keys)
	}
	return keys
}

func clusteredKeys(rng *rand.Rand, n int) []uint64 {
	keys := make([]uint64, 0, n)
	cur := uint64(1)
	for len(keys) < n {
		if rng.Intn(10) == 0 {
			cur += uint64(rng.Intn(1 << 40))
		}
		cur += uint64(rng.Intn(64)) + 1
		keys = append(keys, cur)
	}
	return keys
}

func checkSegments(t *testing.T, name string, keys []uint64, segs []Segment, eps int) {
	t.Helper()
	if len(segs) == 0 {
		t.Fatalf("%s: no segments for %d keys", name, len(keys))
	}
	// Coverage: contiguous, complete, ordered.
	if segs[0].Start != 0 || segs[len(segs)-1].End != len(keys) {
		t.Fatalf("%s: segments cover [%d,%d), want [0,%d)", name, segs[0].Start, segs[len(segs)-1].End, len(keys))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].Start != segs[i-1].End {
			t.Fatalf("%s: gap between segment %d end %d and segment %d start %d", name, i-1, segs[i-1].End, i, segs[i].Start)
		}
		if segs[i].FirstKey <= segs[i-1].FirstKey {
			t.Fatalf("%s: FirstKey not increasing at segment %d", name, i)
		}
	}
	// Error bound.
	m := Evaluate(keys, segs)
	if eps >= 0 && m.MaxErr > eps+segErrTolerance {
		t.Fatalf("%s: max error %d exceeds eps %d (+%d slack)", name, m.MaxErr, eps, segErrTolerance)
	}
	// FindSegment agrees with coverage and Predict lands within MaxErr.
	for i, k := range keys {
		s := FindSegment(segs, k)
		if i < s.Start || i >= s.End {
			t.Fatalf("%s: FindSegment(%d) returned segment [%d,%d) not covering position %d", name, k, s.Start, s.End, i)
		}
		p := s.Predict(k)
		e := p - i
		if e < 0 {
			e = -e
		}
		if e > s.MaxErr+segErrTolerance {
			t.Fatalf("%s: key %d predicted %d actual %d, err %d > segment MaxErr %d", name, k, p, i, e, s.MaxErr)
		}
	}
}

func TestBuildGreedyErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 100, 1000} {
		for _, eps := range []int{0, 1, 4, 32, 256} {
			keys := randKeys(rng, n)
			checkSegments(t, "greedy", keys, BuildGreedy(keys, eps), eps)
			keys = clusteredKeys(rng, n)
			checkSegments(t, "greedy-clustered", keys, BuildGreedy(keys, eps), eps)
		}
	}
}

func TestBuildOptPLAErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 100, 1000, 5000} {
		for _, eps := range []int{0, 1, 4, 32, 256} {
			keys := randKeys(rng, n)
			checkSegments(t, "optpla", keys, BuildOptPLA(keys, eps), eps)
			keys = clusteredKeys(rng, n)
			checkSegments(t, "optpla-clustered", keys, BuildOptPLA(keys, eps), eps)
		}
	}
}

// TestOptPLANotWorseThanGreedy verifies the paper's premise that Opt-PLA
// produces at most as many segments as the greedy algorithm (§II-B2).
func TestOptPLANotWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{100, 1000, 4000} {
		for _, eps := range []int{1, 4, 16, 64} {
			for _, gen := range []func(*rand.Rand, int) []uint64{randKeys, clusteredKeys} {
				keys := gen(rng, n)
				opt := BuildOptPLA(keys, eps)
				greedy := BuildGreedy(keys, eps)
				if len(opt) > len(greedy) {
					t.Errorf("n=%d eps=%d: optpla %d segments > greedy %d", n, eps, len(opt), len(greedy))
				}
			}
		}
	}
}

func TestBuildLSA(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := clusteredKeys(rng, 1000)
	for _, segLen := range []int{1, 7, 100, 1000, 5000} {
		segs := BuildLSA(keys, segLen)
		checkSegments(t, "lsa", keys, segs, -1) // no eps guarantee
		want := (len(keys) + segLen - 1) / segLen
		if len(segs) != want {
			t.Errorf("segLen=%d: got %d segments, want %d", segLen, len(segs), want)
		}
	}
}

func TestLSASequentialIsExact(t *testing.T) {
	keys := dataset.Generate(dataset.Sequential, 512, 0)
	segs := BuildLSA(keys, 128)
	m := Evaluate(keys, segs)
	if m.MaxErr > 1 {
		t.Fatalf("sequential keys should fit exactly, max err %d", m.MaxErr)
	}
}

// Property: on any sorted distinct key set, Opt-PLA respects its bound.
func TestOptPLAQuick(t *testing.T) {
	f := func(raw []uint64, epsRaw uint8) bool {
		keys := dataset.SortedUnique(append([]uint64(nil), raw...))
		if len(keys) == 0 {
			return true
		}
		eps := int(epsRaw % 64)
		segs := BuildOptPLA(keys, eps)
		m := Evaluate(keys, segs)
		return m.MaxErr <= eps+segErrTolerance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: greedy segmentation respects its bound on any input.
func TestGreedyQuick(t *testing.T) {
	f := func(raw []uint64, epsRaw uint8) bool {
		keys := dataset.SortedUnique(append([]uint64(nil), raw...))
		if len(keys) == 0 {
			return true
		}
		eps := int(epsRaw % 64)
		segs := BuildGreedy(keys, eps)
		m := Evaluate(keys, segs)
		return m.MaxErr <= eps+segErrTolerance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedySpline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 50, 2000} {
		for _, eps := range []int{1, 8, 64} {
			keys := clusteredKeys(rng, n)
			pts := BuildGreedySpline(keys, eps)
			if pts[0].Key != keys[0] || pts[len(pts)-1].Key != keys[len(keys)-1] {
				t.Fatalf("spline must include first and last keys")
			}
			// Interpolation error at every data point is within eps (+slack).
			for i, k := range keys {
				idx := sort.Search(len(pts), func(j int) bool { return pts[j].Key > k }) - 1
				if idx < 0 {
					idx = 0
				}
				p := InterpolateSpline(pts, idx, k)
				e := p - i
				if e < 0 {
					e = -e
				}
				if e > eps+segErrTolerance {
					t.Fatalf("n=%d eps=%d key %d: interpolated %d actual %d", n, eps, k, p, i)
				}
			}
		}
	}
}

func TestSplineMonotoneKnots(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := randKeys(rng, 3000)
	pts := BuildGreedySpline(keys, 16)
	for i := 1; i < len(pts); i++ {
		if pts[i].Key <= pts[i-1].Key || pts[i].Pos <= pts[i-1].Pos {
			t.Fatalf("knots not strictly increasing at %d", i)
		}
	}
}

func TestBuildLSAGapPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := clusteredKeys(rng, 500)
	values := make([]uint64, len(keys))
	for i := range values {
		values[i] = uint64(i) * 10
	}
	g := BuildLSAGap(keys, values, 0.7)
	if g.NumKeys != len(keys) {
		t.Fatalf("NumKeys = %d, want %d", g.NumKeys, len(keys))
	}
	if g.Capacity() < len(keys) {
		t.Fatalf("capacity %d < n %d", g.Capacity(), len(keys))
	}
	// Occupied keys appear in sorted order and all are findable.
	prev := uint64(0)
	count := 0
	for i := range g.Keys {
		if !g.Occ.Has(i) {
			continue
		}
		if count > 0 && g.Keys[i] <= prev {
			t.Fatalf("keys out of order at slot %d", i)
		}
		prev = g.Keys[i]
		count++
	}
	if count != len(keys) {
		t.Fatalf("placed %d keys, want %d", count, len(keys))
	}
	for i, k := range keys {
		slot, ok := g.SlotOf(k)
		if !ok {
			t.Fatalf("key %d not found", k)
		}
		if g.Values[slot] != values[i] {
			t.Fatalf("key %d: value %d, want %d", k, g.Values[slot], values[i])
		}
	}
	// Absent keys are not found.
	for i := 0; i < 100; i++ {
		k := rng.Uint64()
		if idx := sort.Search(len(keys), func(j int) bool { return keys[j] >= k }); idx < len(keys) && keys[idx] == k {
			continue
		}
		if _, ok := g.SlotOf(k); ok {
			t.Fatalf("absent key %d 'found'", k)
		}
	}
}

// TestModelPredictCliffs pins predictions far from the anchor: below it
// the distance must not wrap, and far above it the clamp must come before
// the int conversion, whose out-of-range result Go leaves to the platform.
func TestModelPredictCliffs(t *testing.T) {
	seg := Segment{Model: Model{FirstKey: 1000, Slope: 0.01}, End: 100}
	dense := BuildLSAGap([]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, nil, 0.7)
	if dense.Capacity() != 15 {
		t.Fatalf("dense node has %d slots, want 15", dense.Capacity())
	}
	cases := []struct {
		name string
		got  int
		want int
	}{
		{"segment at 1000, key 10", seg.Predict(10), 0},
		{"segment at 1000, key 1500", seg.Predict(1500), 5},
		{"dense node, key 100", dense.Predict(100, dense.Capacity()), 14},
		{"dense node, key 2^63", dense.Predict(1<<63, dense.Capacity()), 14},
		{"dense node, key 2^64-1", dense.Predict(math.MaxUint64, dense.Capacity()), 14},
		{"dense node, key 0", dense.Predict(0, dense.Capacity()), 0},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: predicted %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestEvaluateHandCase(t *testing.T) {
	// Keys 10,20,30,40 with the exact line pos = (key-10)/10.
	keys := []uint64{10, 20, 30, 40}
	segs := []Segment{{Model: Model{FirstKey: 10, Slope: 0.1}, End: 4}}
	m := Evaluate(keys, segs)
	if m.MaxErr != 0 || m.AvgErr != 0 || m.Segments != 1 {
		t.Fatalf("got %+v, want zero error", m)
	}
}

func TestFindSegmentBoundaries(t *testing.T) {
	segs := []Segment{
		{Model: Model{FirstKey: 10}, Start: 0, End: 2},
		{Model: Model{FirstKey: 30}, Start: 2, End: 4},
		{Model: Model{FirstKey: 50}, Start: 4, End: 6},
	}
	cases := []struct {
		key  uint64
		want int // expected Start
	}{
		{5, 0}, {10, 0}, {29, 0}, {30, 2}, {49, 2}, {50, 4}, {100, 4},
	}
	for _, c := range cases {
		if got := FindSegment(segs, c.key); got.Start != c.want {
			t.Errorf("FindSegment(%d).Start = %d, want %d", c.key, got.Start, c.want)
		}
	}
}

func TestOptPLAFewerSegmentsThanLSAAtEqualError(t *testing.T) {
	// Fig 17(b): at comparable error, Opt-PLA needs orders of magnitude
	// fewer leaves than LSA on a complex CDF.
	keys := dataset.Generate(dataset.OSMLike, 20000, 9)
	lsa := Evaluate(keys, BuildLSA(keys, 64))
	eps := int(lsa.AvgErr*2) + 2
	opt := BuildOptPLA(keys, eps)
	if len(opt) >= len(keys)/64 {
		t.Fatalf("optpla %d segments not fewer than lsa %d at eps %d", len(opt), len(keys)/64, eps)
	}
}

func BenchmarkBuildOptPLA(b *testing.B) {
	keys := dataset.Generate(dataset.OSMLike, 200000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildOptPLA(keys, 32)
	}
}

func BenchmarkBuildGreedy(b *testing.B) {
	keys := dataset.Generate(dataset.OSMLike, 200000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildGreedy(keys, 32)
	}
}
