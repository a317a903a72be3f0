package viper

import (
	"bytes"
	"errors"
	"testing"

	"learnedpieces/internal/btree"
	"learnedpieces/internal/index"
	"learnedpieces/internal/learned/flat"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/telemetry"
)

// TestCloseFencesOperations verifies the lifecycle contract: after Close,
// every erroring operation returns ErrClosed (errors.Is-matchable) and
// reads degrade to misses instead of touching freed structures.
func TestCloseFencesOperations(t *testing.T) {
	s := newStore(btree.New())
	if err := s.Put(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if s.Closed() {
		t.Fatal("store reports closed before Close")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if !s.Closed() {
		t.Fatal("store not closed after Close")
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if err := s.Put(2, []byte("two")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Delete(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close = %v, want ErrClosed", err)
	}
	if err := s.Range(0, 10, func(uint64, []byte) bool { return true }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Range after Close = %v, want ErrClosed", err)
	}
	if err := s.BulkPut([]uint64{10, 20}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("BulkPut after Close = %v, want ErrClosed", err)
	}
	if err := s.Recover(btree.New()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recover after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Compact(btree.New()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close = %v, want ErrClosed", err)
	}
	if _, ok := s.Get(1); ok {
		t.Fatal("Get after Close returned a hit")
	}
	if out := s.MultiGet([]uint64{1}); out[0] != nil {
		t.Fatal("MultiGet after Close returned a hit")
	}
}

// TestCloseDrainsRetrains: a store in async retrain mode must install
// pending rebuilds and stop its pool workers on Close; the structure
// stays readable up to the fence and no goroutine survives.
func TestCloseDrainsRetrains(t *testing.T) {
	s := Open(pmem.NewRegion(64<<20, pmem.None()), fitingBuf(),
		WithRetrainMode(RetrainAsync))
	for i := uint64(1); i <= 5000; i++ {
		if err := s.Put(i, value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A second close is fenced, and the pool does not accept work.
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

// TestCloseFoldsTelemetry: a snapshot taken after Close still carries the
// closed store's device totals (probe folding), and the sink keeps
// working for the next store generation.
func TestCloseFoldsTelemetry(t *testing.T) {
	sink := telemetry.New()
	s := Open(pmem.NewRegion(32<<20, pmem.None()), btree.New(), WithTelemetry(sink))
	if err := s.Put(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	before := sink.Snapshot()
	if before.PMem.Writes == 0 {
		t.Fatal("expected device writes before Close")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := sink.Snapshot()
	if after.PMem.Writes < before.PMem.Writes {
		t.Fatalf("device totals lost on Close: %d -> %d", before.PMem.Writes, after.PMem.Writes)
	}
}

// TestTypedErrorClassification pins the errors.Is taxonomy the network
// server maps to wire status codes.
func TestTypedErrorClassification(t *testing.T) {
	s := newStore(btree.New())
	if err := s.Put(1, nil); !errors.Is(err, ErrEmptyValue) || !errors.Is(err, ErrValueSize) {
		t.Fatalf("empty value = %v, want ErrEmptyValue, an ErrValueSize", err)
	}
	if err := s.Put(1, make([]byte, PageSize+1)); !errors.Is(err, ErrValueSize) {
		t.Fatalf("oversized value = %v, want ErrValueSize", err)
	}

	// A read-only index refuses a Put before anything is written.
	ro := Open(pmem.NewRegion(8<<20, pmem.None()), flat.NewRMI(flat.RMIConfig{}))
	if err := ro.Put(1, []byte("v")); !errors.Is(err, ErrUnsupported) || !errors.Is(err, index.ErrReadOnly) {
		t.Fatalf("Put on a read-only index = %v, want ErrUnsupported and index.ErrReadOnly", err)
	}
	if ro.Len() != 0 || ro.Region().Allocated() != 0 {
		t.Fatalf("a refused Put left Len %d and %d bytes allocated, want none", ro.Len(), ro.Region().Allocated())
	}
	_ = ro.Close()

	// A region with space for exactly one page fills on the second.
	tiny := Open(pmem.NewRegion(PageSize, pmem.None()), btree.New())
	var err error
	for i := uint64(0); err == nil && i < 1<<20; i++ {
		err = tiny.Put(i, bytes.Repeat([]byte{1}, 4096))
	}
	if !errors.Is(err, ErrFull) {
		t.Fatalf("exhausted region = %v, want ErrFull", err)
	}
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrValueSize) {
		t.Fatalf("ErrFull cross-matches other sentinels: %v", err)
	}
	_ = tiny.Close()
	_ = s.Close()
}
