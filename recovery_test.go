package learnedpieces_test

import (
	"testing"

	"learnedpieces/internal/core"
	"learnedpieces/internal/dataset"
	"learnedpieces/internal/learned/apex"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/viper"
)

// reopenLinesPerKey is the device lines reopen reads from region, per key.
func reopenLinesPerKey(region *pmem.Region, keys int, reopen func()) float64 {
	before := region.AccessStats().LineReads
	reopen()
	return float64(region.AccessStats().LineReads-before) / float64(keys)
}

// TestFig16ReopenLines pins Fig 16's recovery asymmetry on device
// counters, so it holds on any machine: APEX reopens from its node log and
// headers (about 2 lines per node of ~180 keys), while a store reopened
// over its region walks the page stamps and scans every page (0.83 lines
// per key in a full page, more when the last page is short). At N and 4N
// keys APEX must read at least 10× fewer lines per key than the store.
func TestFig16ReopenLines(t *testing.T) {
	const n = 25_000
	entry, _ := core.Lookup("alex")
	for _, size := range []int{n, 4 * n} {
		keys := dataset.Generate(dataset.YCSBNormal, size, benchSeed)

		aRegion := pmem.NewRegion(size*64+64<<20, pmem.None())
		ax, err := apex.Create(aRegion, apex.Config{LogCap: size})
		if err == nil {
			err = ax.BulkLoad(keys, keys)
		}
		if err != nil {
			t.Fatal(err)
		}
		apexLines := reopenLinesPerKey(aRegion, size, func() {
			rec, err := apex.Recover(aRegion)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Len() != size {
				t.Fatalf("apex reopened %d keys, want %d", rec.Len(), size)
			}
		})

		sRegion := pmem.NewRegion(size*(viper.DefaultValueSize+32)+8<<20, pmem.None())
		s := viper.Open(sRegion, entry.New())
		if err := s.BulkPut(keys, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		storeLines := reopenLinesPerKey(sRegion, size, func() {
			if got := viper.Open(sRegion, entry.New()).Len(); got != size {
				t.Fatalf("the store reopened %d keys, want %d", got, size)
			}
		})

		t.Logf("%d keys: apex %.4f lines/key, store %.4f", size, apexLines, storeLines)
		if apexLines <= 0 || storeLines < 10*apexLines {
			t.Errorf("%d keys: apex reopen reads %.4f lines/key, the store's %.4f; want at least 10× fewer", size, apexLines, storeLines)
		}
	}
}
