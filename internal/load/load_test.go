package load

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"learnedpieces/internal/client"
	"learnedpieces/internal/learned/finedex"
	"learnedpieces/internal/pmem"
	"learnedpieces/internal/server"
	"learnedpieces/internal/viper"
	"learnedpieces/internal/wire"
	"learnedpieces/internal/workload"
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

// TestRunIssuesExactlyOps runs a mix of every op kind whose op count does
// not divide by the worker count: the remainder must be issued, not
// dropped, and an RMW counts as one op.
func TestRunIssuesExactlyOps(t *testing.T) {
	_, addr := startServer(t, 5000)
	r, err := Run(context.Background(), Config{
		Addr: addr, Conns: 2, Clients: 8, Ops: 1001, Keyspace: 5000,
		Mix: workload.Mix{Read: 0.8, Update: 0.08, Insert: 0.05, RMW: 0.05, Scan: 0.02, Zipfian: true, ScanLen: 20},
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
	if r.Reads+r.Updates+r.Inserts+r.Scans <= r.Ops {
		t.Fatalf("no RMW counted as a read and an update: %+v", r)
	}
}

// TestRunLongScansSpanChunks runs YCSB-E with ranges longer than one
// response frame carries: they must reassemble in order across
// continuation frames.
func TestRunLongScansSpanChunks(t *testing.T) {
	_, addr := startServer(t, 20000)
	mix := workload.YCSBE
	mix.ScanLen = 2 * wire.MaxRangeChunk
	r, err := Run(context.Background(), Config{
		Addr: addr, Conns: 2, Clients: 4, Ops: 40, Keyspace: 20000, Mix: mix,
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
		Mix: workload.Mix{Read: 0.9, Update: 0.05, Insert: 0.05}, DrainEvery: 50,
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

// TestRunReadsOwnInserts runs YCSB-D, whose reads mostly pick the
// worker's own latest inserts: every one must be found.
func TestRunReadsOwnInserts(t *testing.T) {
	_, addr := startServer(t, 5000)
	r, err := Run(context.Background(), Config{
		Addr: addr, Conns: 2, Clients: 4, Ops: 2000, Keyspace: 5000, Mix: workload.YCSBD,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkClean(t, r)
	if r.Inserts == 0 || r.Misses != 0 {
		t.Fatalf("inserts %d, misses %d: a read missed an acknowledged insert", r.Inserts, r.Misses)
	}
}

// TestRunRejectsBadConfig checks that an unknown mix name yields no mix
// and that Run refuses one, as it refuses a run with no keyspace.
func TestRunRejectsBadConfig(t *testing.T) {
	_, addr := startServer(t, 10)
	unknown, err := workload.MixNamed("pareto")
	if err == nil {
		t.Fatal("MixNamed(pareto) found a mix")
	}
	for field, cfg := range map[string]Config{
		"Mix":      {Keyspace: 10, Mix: unknown},
		"Keyspace": {Mix: workload.YCSBC},
	} {
		t.Run(field, func(t *testing.T) {
			cfg.Addr = addr
			if _, err := Run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), field) {
				t.Fatalf("Run = %v, want an error naming %s", err, field)
			}
		})
	}
}

// TestIsConnLoss pins the lost-or-answered rule that Result.Lost, and so
// viperload -strict, rests on: a status the server sent is an answer;
// anything else means no response arrived.
func TestIsConnLoss(t *testing.T) {
	for s := range 256 {
		if err := wire.Status(s).Err(); err != nil {
			for _, e := range []error{err, fmt.Errorf("op: %w", err)} {
				if isConnLoss(e) {
					t.Errorf("status %v: %v counted as lost", wire.Status(s), e)
				}
			}
		}
	}
	for _, err := range []error{
		client.ErrConnClosed, context.Canceled, context.DeadlineExceeded,
		fmt.Errorf("op: %w", context.DeadlineExceeded), errors.New("unclassified"),
	} {
		if !isConnLoss(err) {
			t.Errorf("%v counted as answered", err)
		}
	}
	if isConnLoss(nil) {
		t.Error("nil counted as lost")
	}
}
