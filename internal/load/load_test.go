package load

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"learnedpieces/internal/learned/finedex"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/server"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/wire"
)

// startServer boots an in-process server over a finedex store preloaded
// with keys 1..keyspace, so writes run concurrently under finedex's
// per-bin locks. It returns the server and its loopback address; the
// cleanup shuts both down.
func startServer(t *testing.T, keyspace int) (*server.Server, string) {
	t.Helper()
	keys := make([]uint64, keyspace)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	store := viper.Open(pmem.NewRegion(64<<20, pmem.None()), finedex.New(finedex.DefaultConfig()))
	if err := store.BulkPut(keys, nil); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = store.Close()
	})
	return srv, ln.Addr().String()
}

// checkClean fails on any lost, duplicated, failed or misordered answer.
func checkClean(t *testing.T, r Result) {
	t.Helper()
	if r.Lost != 0 || r.Dup != 0 || r.Errors != 0 || r.ScanViolations != 0 {
		t.Fatalf("lost %d, dup %d, errors %d, scan violations %d: %+v",
			r.Lost, r.Dup, r.Errors, r.ScanViolations, r)
	}
}

// TestRunIssuesExactlyOps runs a mix whose op count does not divide by
// the worker count: the remainder must be issued, not dropped.
func TestRunIssuesExactlyOps(t *testing.T) {
	_, addr := startServer(t, 5000)
	r, err := Run(context.Background(), Config{
		Addr: addr, Conns: 2, Clients: 8, Ops: 1001, Keyspace: 5000, Dist: "zipf",
		ReadFrac: 0.85, UpdateFrac: 0.08, InsertFrac: 0.05, ScanFrac: 0.02, ScanLen: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, r)
	if r.Ops != 1001 {
		t.Fatalf("Ops = %d, want 1001", r.Ops)
	}
	if r.Reads == 0 || r.Updates == 0 || r.Inserts == 0 || r.Misses != 0 {
		t.Fatalf("mix not exercised or a preloaded key missed: %+v", r)
	}
}

// TestRunLongScansSpanChunks runs YCSB-E with ranges longer than one
// response frame carries: they must reassemble in order across
// continuation frames.
func TestRunLongScansSpanChunks(t *testing.T) {
	_, addr := startServer(t, 20000)
	r, err := Run(context.Background(), Config{
		Addr: addr, Conns: 2, Clients: 4, Ops: 40, Keyspace: 20000,
		ScanFrac: 0.95, InsertFrac: 0.05, ScanLen: 2 * wire.MaxRangeChunk,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, r)
	if !(r.ScanChunks > r.Scans && r.Scans > 0) {
		t.Fatalf("scans %d over %d chunks: no range spanned two frames", r.Scans, r.ScanChunks)
	}
}

// TestRunDrainUnderLoad interleaves graceful drains with the mix: every
// request, drains included, must still be answered exactly once.
func TestRunDrainUnderLoad(t *testing.T) {
	srv, addr := startServer(t, 5000)
	r, err := Run(context.Background(), Config{
		Addr: addr, Conns: 2, Clients: 8, Ops: 2000, Keyspace: 5000,
		ReadFrac: 0.9, UpdateFrac: 0.05, InsertFrac: 0.05, DrainEvery: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, r)
	if r.Ops != 2000 {
		t.Fatalf("Ops = %d, want 2000", r.Ops)
	}
	if d := srv.Metrics().Drains; d == 0 {
		t.Fatal("no drain reached the server")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	_, addr := startServer(t, 10)
	for field, cfg := range map[string]Config{
		"Dist":        {Keyspace: 10, ReadFrac: 1, Dist: "pareto"},
		"ScanLenDist": {Keyspace: 10, ScanFrac: 1, ScanLenDist: "pareto"},
		"Keyspace":    {ReadFrac: 1},
	} {
		t.Run(field, func(t *testing.T) {
			cfg.Addr = addr
			if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), field) {
				t.Fatalf("Run = %v, want an error naming %s", err, field)
			}
		})
	}
}
