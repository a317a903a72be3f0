package core

import (
	"fmt"
	"reflect"
	"testing"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
)

// TestRegistryUpsert: every registry entry — the delta wrappers, which no
// package-level conformance run covers, included — answers InsertReplace
// exactly (the read-only pair with ErrReadOnly), so the store's Put needs
// one descent.
func TestRegistryUpsert(t *testing.T) {
	for _, e := range Registry() {
		indextest.Run(t, e.Name, e.New, "upsert")
	}
}

// TestCapsFieldsVary: every field of index.Caps splits the indexes — at
// least one reports it and at least one does not. A capability every
// index has belongs in index.Index, not in the descriptor.
func TestCapsFieldsVary(t *testing.T) {
	var idxs []index.Index
	for _, e := range Registry() {
		idxs = append(idxs, e.New())
	}
	fields := reflect.TypeOf(index.Caps{})
	for f := 0; f < fields.NumField(); f++ {
		t.Run(fields.Field(f).Name, func(t *testing.T) {
			var with, without []string
			for _, idx := range idxs {
				if reflect.ValueOf(index.CapsOf(idx)).Field(f).Bool() {
					with = append(with, idx.Name())
				} else {
					without = append(without, idx.Name())
				}
			}
			if len(with) == 0 || len(without) == 0 {
				t.Errorf("does not vary: true for %v, false for %v", with, without)
			}
		})
	}
}

// TestIndexDatasetMatrix runs every registry index against every key
// distribution: bulk load, point lookups, negative lookups,
// mid-stream inserts and a bounded ordered scan. This is the robustness
// net behind the paper's "fair environment" claim — all indexes must be
// correct on all datasets before their performance is compared.
func TestIndexDatasetMatrix(t *testing.T) {
	const n = 8000
	for _, e := range Registry() {
		for _, kind := range dataset.Kinds() {
			e, kind := e, kind
			t.Run(fmt.Sprintf("%s/%s", e.Name, kind), func(t *testing.T) {
				keys := dataset.Generate(kind, n, 77)
				load, inserts := dataset.Split(keys, n/4)
				idx := e.New()

				if err := idx.BulkLoad(load, load); err != nil {
					t.Fatal(err)
				}

				// Point lookups over the loaded set.
				for i := 0; i < len(load); i += 7 {
					if v, ok := idx.Get(load[i]); !ok || v != load[i] {
						t.Fatalf("get(%d) = %d,%v", load[i], v, ok)
					}
				}
				// The held-out keys must be absent.
				for i := 0; i < len(inserts); i += 5 {
					if _, ok := idx.Get(inserts[i]); ok {
						t.Fatalf("absent key %d found", inserts[i])
					}
				}

				// Mid-stream inserts (skipped for read-only indexes).
				writable := true
				for _, k := range dataset.Shuffled(inserts, 78) {
					if err := idx.Insert(k, k^1); err != nil {
						if err == index.ErrReadOnly {
							writable = false
							break
						}
						t.Fatal(err)
					}
				}
				if writable {
					if idx.Len() != len(keys) {
						t.Fatalf("Len = %d, want %d", idx.Len(), len(keys))
					}
					for i := 0; i < len(inserts); i += 3 {
						if v, ok := idx.Get(inserts[i]); !ok || v != inserts[i]^1 {
							t.Fatalf("inserted key %d: %d,%v", inserts[i], v, ok)
						}
					}
				}

				// Bounded ordered scan from a midpoint (ordered indexes).
				if r := index.Seams(idx).Range; r != nil {
					start := keys[len(keys)/2]
					prev := uint64(0)
					cnt := 0
					index.Scan(r, start, 64, func(k, v uint64) bool {
						if k < start {
							t.Fatalf("scan returned %d < start %d", k, start)
						}
						if cnt > 0 && k <= prev {
							t.Fatalf("scan out of order: %d after %d", k, prev)
						}
						prev = k
						cnt++
						return true
					})
					if cnt == 0 {
						t.Fatal("bounded scan returned nothing")
					}
				}
			})
		}
	}
}
