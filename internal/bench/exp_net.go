package bench

import (
	"context"
	"fmt"
	"net"
	"time"

	"learnedpieces/internal/dataset"
	"learnedpieces/internal/load"
	"learnedpieces/internal/server"
	"learnedpieces/internal/stats"
	"learnedpieces/internal/viper"
)

// RunNet measures the service front end end to end over loopback TCP.
// For each index it boots an in-process server, preloads cfg.N keys,
// and drives a 90/8/2 read/update/insert mix from 16 blocking clients
// over 4 pooled connections — a shallow pipeline, so a connection's Get
// runs are 1-4 long. The table reports client-observed throughput and
// round-trip latency, the server's run-length percentiles, and the
// rejected/lost/dup columns, which must be zero: the run ends with a
// graceful drain and every request still answered.
//
// Index choice is the axis: btree and alex resolve a run through the
// interleaved BatchGetter kernel (btree's deeper pointer chase has more
// to overlap), xindex has no batch seam and pays per key.
func RunNet(cfg Config) error {
	keys := dataset.Generate(dataset.YCSBNormal, cfg.N, cfg.Seed)
	t := stats.NewTable(
		fmt.Sprintf("Net: vipersrv end-to-end over loopback TCP (n=%d, ops=%d)", cfg.N, cfg.Ops),
		"index", "clients", "kops", "p50(us)", "p99(us)",
		"run p50", "run p99", "rejected", "lost", "dup")

	const clients = 16
	for _, indexName := range []string{"btree", "alex", "xindex"} {
		s, err := cfg.buildStore(mustEntry(indexName).New(), keys)
		if err != nil {
			return fmt.Errorf("%s: %w", indexName, err)
		}
		srv, err := server.New(server.Config{Store: s, Sink: cfg.Telemetry})
		if err != nil {
			_ = s.Close()
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = s.Close()
			return err
		}
		go func() { _ = srv.Serve(ln) }()

		res, runErr := load.Run(context.Background(), load.Config{
			Addr:       ln.Addr().String(),
			Conns:      4,
			Clients:    clients,
			Ops:        cfg.Ops,
			Keyspace:   uint64(cfg.N),
			Dist:       "zipf",
			ReadFrac:   0.90,
			UpdateFrac: 0.08,
			InsertFrac: 0.02,
			ValueSize:  cfg.ValueSize,
			Seed:       cfg.Seed,
		})
		sv := srv.Metrics()

		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = srv.Shutdown(sctx)
		cancel()
		if cerr := s.Close(); cerr != nil && cerr != viper.ErrClosed {
			return cerr
		}
		if runErr != nil {
			return fmt.Errorf("%s: %w", indexName, runErr)
		}
		if err != nil {
			return fmt.Errorf("%s shutdown: %w", indexName, err)
		}
		t.AddRow(indexName, clients,
			fmt.Sprintf("%.1f", res.Kops),
			fmt.Sprintf("%.1f", float64(res.P50Ns)/1e3),
			fmt.Sprintf("%.1f", float64(res.P99Ns)/1e3),
			sv.BatchP50, sv.BatchP99, res.Rejected, res.Lost, res.Dup)
	}
	cfg.render(t)
	return nil
}
