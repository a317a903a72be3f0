package search

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// oracle is the reference lower bound every kernel must match.
func oracle(keys []uint64, key uint64, lo, hi int) int {
	lo, hi = clamp(lo, hi, len(keys))
	return lo + sort.Search(hi-lo, func(i int) bool { return keys[lo+i] >= key })
}

// corpora builds the distributions the kernels must survive: empty,
// singleton, all-equal, dense uniform, sparse uniform, exponentially
// skewed gaps (osm-like), and long duplicate plateaus.
func corpora(rng *rand.Rand) [][]uint64 {
	uniformDense := make([]uint64, 4096)
	for i := range uniformDense {
		uniformDense[i] = uint64(i) * 3
	}
	uniformSparse := make([]uint64, 1000)
	for i := range uniformSparse {
		uniformSparse[i] = rng.Uint64() >> 1
	}
	skewed := make([]uint64, 2048)
	g := uint64(1)
	for i := range skewed {
		skewed[i] = g
		g += 1 + uint64(rng.Intn(1<<(uint(i)%20)))
	}
	plateaus := make([]uint64, 1500)
	v := uint64(0)
	for i := range plateaus {
		if rng.Intn(10) == 0 {
			v += uint64(rng.Intn(100)) + 1
		}
		plateaus[i] = v
	}
	allEqual := make([]uint64, 333)
	for i := range allEqual {
		allEqual[i] = 42
	}
	extremes := []uint64{0, 0, 1, 1 << 63, ^uint64(0) - 1, ^uint64(0), ^uint64(0)}
	out := [][]uint64{nil, {7}, allEqual, uniformDense, uniformSparse, skewed, plateaus, extremes}
	for _, s := range out {
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	}
	return out
}

// probes picks interesting query keys for a slice: every element, its
// neighbours, and extremes.
func probeKeys(keys []uint64, rng *rand.Rand) []uint64 {
	qs := []uint64{0, 1, ^uint64(0), ^uint64(0) - 1}
	for _, k := range keys {
		qs = append(qs, k)
		if k > 0 {
			qs = append(qs, k-1)
		}
		if k < ^uint64(0) {
			qs = append(qs, k+1)
		}
	}
	for i := 0; i < 64; i++ {
		qs = append(qs, rng.Uint64())
	}
	return qs
}

func checkLower(t *testing.T, name string, fn func([]uint64, uint64, int, int) int, keys []uint64, key uint64, lo, hi int) {
	t.Helper()
	want := oracle(keys, key, lo, hi)
	got := fn(keys, key, lo, hi)
	if got != want {
		t.Fatalf("%s(len=%d, key=%d, lo=%d, hi=%d) = %d, oracle %d", name, len(keys), key, lo, hi, got, want)
	}
}

// kernelsUnderTest exposes each unexported kernel, and the exported
// LowerBound that chooses between them, through the shared clamped
// signature.
func kernelsUnderTest() map[string]func([]uint64, uint64, int, int) int {
	wrap := func(k func([]uint64, uint64, int, int) (int, int32)) func([]uint64, uint64, int, int) int {
		return func(keys []uint64, key uint64, lo, hi int) int {
			lo, hi = clamp(lo, hi, len(keys))
			i, _ := k(keys, key, lo, hi)
			return i
		}
	}
	return map[string]func([]uint64, uint64, int, int) int{
		"branchless": wrap(lowerBranchless),
		"linear":     wrap(lowerLinear),
		"LowerBound": LowerBound,
	}
}

// floorOracle is the reference floor: the last index whose key is <=
// key, 0 when there is none.
func floorOracle(keys []uint64, key uint64) int {
	return max(sort.Search(len(keys), func(i int) bool { return keys[i] > key })-1, 0)
}

// checkFloor runs Floor over hint windows placed around the answer a:
// inside it, wholly left and wholly right of it, empty, clamped at either
// end, and the extra windows given.
func checkFloor(t *testing.T, keys []uint64, key uint64, extra ...[2]int) {
	t.Helper()
	a, n := floorOracle(keys, key), len(keys)
	windows := append([][2]int{
		{a, a + 1}, {a - 3, a + 4}, // inside
		{0, a}, {a - 9, a}, // left
		{a + 1, n}, {a + 1, a + 9}, // right
		{a, a}, {n, 0}, // empty
		{-5, 3}, {n - 3, n + 5}, {-1, n + 1}, // clamped
	}, extra...)
	for _, w := range windows {
		if got := Floor(keys, key, w[0], w[1]); got != a {
			t.Fatalf("Floor(len=%d, key=%d, lo=%d, hi=%d) = %d, oracle %d", n, key, w[0], w[1], got, a)
		}
	}
}

func TestKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kernels := kernelsUnderTest()
	for _, keys := range corpora(rng) {
		windows := [][2]int{{0, len(keys)}, {-5, len(keys) + 5}}
		for i := 0; i < 16; i++ {
			lo := rng.Intn(len(keys) + 1)
			hi := lo + rng.Intn(len(keys)+1-lo)
			windows = append(windows, [2]int{lo, hi})
		}
		for name, fn := range kernels {
			for _, w := range windows {
				for _, q := range probeKeys(keys, rng) {
					checkLower(t, name, fn, keys, q, w[0], w[1])
				}
			}
		}
		for _, q := range probeKeys(keys, rng) {
			checkFloor(t, keys, q, windows...)
		}
	}
}

func TestExportedEntryPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, keys := range corpora(rng) {
		for _, q := range probeKeys(keys, rng) {
			if got, want := LowerBound(keys, q, 0, len(keys)), oracle(keys, q, 0, len(keys)); got != want {
				t.Fatalf("LowerBound(key=%d) = %d, want %d", q, got, want)
			}
			wantU := sort.Search(len(keys), func(i int) bool { return keys[i] > q })
			if got := UpperBound(keys, q, 0, len(keys)); got != wantU {
				t.Fatalf("UpperBound(key=%d) = %d, want %d", q, got, wantU)
			}
			i, ok := Find(keys, q)
			want := oracle(keys, q, 0, len(keys))
			wantOK := want < len(keys) && keys[want] == q
			if i != want || ok != wantOK {
				t.Fatalf("Find(key=%d) = (%d, %v), want (%d, %v)", q, i, ok, want, wantOK)
			}
		}
	}
}

// TestAutoKernelChoice pins LowerBound's one selection rule through the
// counters behind search.probes_per_search: which kernel answered a
// window of each width, and exactly how many slots it probed. The key
// sits past the window, so the linear scan reads every slot and the
// halving kernel reads ceil(log2(width)) of them plus its final slot.
func TestAutoKernelChoice(t *testing.T) {
	defer EnableStats(false)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = uint64(i)
	}
	for _, tc := range []struct {
		width  int
		kernel string
		probes int64
	}{
		{0, "linear", 0},
		{1, "linear", 1},
		{23, "linear", 23},
		{24, "linear", 24},
		{25, "branchless", 6},
		{64, "branchless", 7},
		{1 << 16, "branchless", 17},
	} {
		t.Run(fmt.Sprintf("w=%d", tc.width), func(t *testing.T) {
			ResetStats()
			EnableStats(true)
			if got := LowerBound(keys, ^uint64(0), 0, tc.width); got != tc.width {
				t.Fatalf("LowerBound = %d, want %d", got, tc.width)
			}
			EnableStats(false)
			snap := StatsSnapshot()
			want := []KernelStats{{Kernel: tc.kernel, Searches: 1, Probes: tc.probes}}
			if fmt.Sprint(snap) != fmt.Sprint(want) {
				t.Fatalf("StatsSnapshot = %+v, want %+v", snap, want)
			}
		})
	}
}

func TestFindBoundedWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 512)
	for i := range keys {
		keys[i] = uint64(i) * 7
	}
	for trial := 0; trial < 2000; trial++ {
		lo := rng.Intn(len(keys)+40) - 20
		hi := lo + rng.Intn(80)
		q := uint64(rng.Intn(len(keys)*7 + 10))
		i, ok := FindBounded(keys, q, lo, hi)
		clo, chi := clamp(lo, hi, len(keys))
		want := oracle(keys, q, clo, chi)
		wantOK := want < chi && keys[want] == q
		if i != want || ok != wantOK {
			t.Fatalf("FindBounded(key=%d, [%d,%d)) = (%d,%v), want (%d,%v)", q, lo, hi, i, ok, want, wantOK)
		}
	}
}

func TestBatchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	slices := corpora(rng)
	for trial := 0; trial < 500; trial++ {
		var b Batch
		type lane struct {
			keys   []uint64
			key    uint64
			lo, hi int
		}
		var lanes []lane
		n := rng.Intn(MaxLanes + 1)
		for i := 0; i < n; i++ {
			keys := slices[rng.Intn(len(slices))]
			lo := rng.Intn(len(keys) + 1)
			hi := lo + rng.Intn(len(keys)+1-lo)
			var q uint64
			if len(keys) > 0 && rng.Intn(2) == 0 {
				q = keys[rng.Intn(len(keys))]
			} else {
				q = rng.Uint64()
			}
			if !b.Add(keys, q, lo, hi) {
				t.Fatal("Add refused below MaxLanes")
			}
			lanes = append(lanes, lane{keys, q, lo, hi})
		}
		if b.Add(nil, 0, 0, 0) && n == MaxLanes {
			t.Fatal("Add accepted past MaxLanes")
		}
		b = Batch{}
		for _, ln := range lanes {
			b.Add(ln.keys, ln.key, ln.lo, ln.hi)
		}
		b.Run()
		for l, ln := range lanes {
			want := oracle(ln.keys, ln.key, ln.lo, ln.hi)
			if got := b.Pos(l); got != want {
				t.Fatalf("lane %d: Pos = %d, oracle %d", l, got, want)
			}
			wantOK := want < ln.hi && want < len(ln.keys) && ln.keys[want] == ln.key
			if got := b.Found(l); got != wantOK {
				t.Fatalf("lane %d: Found = %v, want %v", l, got, wantOK)
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	defer EnableStats(false)
	ResetStats()
	EnableStats(true)
	if !StatsEnabled() {
		t.Fatal("stats not enabled")
	}
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i)
	}
	Find(keys, 512)
	var b Batch
	b.Add(keys, 1, 0, len(keys))
	b.Add(keys, 2, 0, len(keys))
	b.Run()
	snap := StatsSnapshot()
	byName := map[string]KernelStats{}
	for _, s := range snap {
		byName[s.Kernel] = s
	}
	if s := byName["branchless"]; s.Searches != 1 || s.Probes == 0 {
		t.Fatalf("branchless stats = %+v", s)
	}
	if s := byName["batch"]; s.Searches != 2 || s.Probes == 0 {
		t.Fatalf("batch stats = %+v", s)
	}
	ResetStats()
	if StatsSnapshot() != nil {
		t.Fatal("ResetStats left counters")
	}
}

func TestZeroAlloc(t *testing.T) {
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = uint64(i) * 2
	}
	if n := testing.AllocsPerRun(100, func() {
		Find(keys, 12345)
		LowerBound(keys, 777, 100, 60000)
		Floor(keys, 777, 1000, 1100)
	}); n != 0 {
		t.Fatalf("point kernels allocate %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		var b Batch
		for i := 0; i < MaxLanes; i++ {
			b.Add(keys, uint64(i*97), 0, len(keys))
		}
		b.Run()
		for i := 0; i < MaxLanes; i++ {
			_ = b.Pos(i)
			_ = b.Found(i)
		}
	}); n != 0 {
		t.Fatalf("batch kernel allocates %v/op", n)
	}
}

// FuzzLowerBound cross-checks every kernel and Floor against the
// oracles on fuzzed key material: bytes decode to deltas (so the slice
// is sorted by construction, including zero deltas for duplicates).
func FuzzLowerBound(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0, 0, 0, 0}, uint64(42))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 255, 255}, uint64(30))
	f.Fuzz(func(t *testing.T, deltas []byte, key uint64) {
		keys := make([]uint64, 0, len(deltas))
		v := uint64(0)
		for _, d := range deltas {
			v += uint64(d) * uint64(d) // quadratic gaps: skewed windows
			keys = append(keys, v)
		}
		// keys' capacity is its length, so a window ending at len(keys)
		// ends at the backing array's end: the prefetched lines of the
		// tail windows below are the array's last.
		n := len(keys)
		for name, fn := range kernelsUnderTest() {
			checkLower(t, name, fn, keys, key, 0, n)
			checkLower(t, name, fn, keys, key, n/3, 2*n/3)
			checkLower(t, name, fn, keys, key, n, n)
			for _, k := range []int{1, linearCutoff + 1, MaxLanes * 8, MaxLanes*8 + 1} {
				checkLower(t, name, fn, keys, key, max(n-k, 0), n)
			}
		}
		checkFloor(t, keys, key, [2]int{0, n}, [2]int{n / 3, 2 * n / 3})
		var b Batch
		b.Add(keys, key, 0, n)
		b.Add(keys, key, n/2, n)
		b.Run()
		for l, lo := range []int{0, n / 2} {
			if want := oracle(keys, key, lo, n); b.Pos(l) != want {
				t.Fatalf("batch lane %d Pos = %d, oracle %d", l, b.Pos(l), want)
			}
		}
	})
}

// TestPadLayout pins the cache-line pads: each pad ends on a 64-byte
// boundary and a struct ending in one is a whole number of lines, so a
// field added beside a pad fails here instead of sharing a line.
func TestPadLayout(t *testing.T) {
	if got := unsafe.Sizeof(kernelStat{}); got != 64 {
		t.Errorf("sizeof kernelStat = %d, want 64", got)
	}
}
