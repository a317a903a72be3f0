package telemetry

import (
	"fmt"
	"io"
	"time"

	"learnedpieces/internal/index"
	"learnedpieces/internal/stats"
)

// WriteText renders the snapshot as aligned plain-text tables through
// the stats renderer — the same layout the bench harness prints, so the
// vipercli `stats` command and the /telemetry/table endpoint read like
// the rest of the repo's output.
func (sn Snapshot) WriteText(w io.Writer) {
	ops := stats.NewTable("store operations",
		"op", "ops", "sampled", "mean(ns)", "p50(ns)", "p99(ns)", "p99.9(ns)", "max(ns)")
	addOp := func(name string, o OpSnapshot) {
		if o.Ops == 0 {
			return
		}
		ops.AddRow(name, o.Ops, o.Sampled, o.MeanNs, o.P50Ns, o.P99Ns, o.P999Ns, o.MaxNs)
	}
	addOp("put", sn.Store.Put)
	addOp("get", sn.Store.Get)
	addOp("delete", sn.Store.Delete)
	addOp("scan", sn.Store.Scan)
	addOp("multiget", sn.Store.MultiGet)
	ops.Render(w)

	ev := stats.NewTable("store events", "event", "value")
	ev.AddRow("get misses", sn.Store.GetMisses)
	ev.AddRow("multiget keys", sn.Store.MultiGetKeys)
	ev.AddRow("page rollovers", sn.Store.PageRollovers)
	ev.AddRow("tombstones", sn.Store.Tombstones)
	ev.AddRow("live keys", sn.Store.LiveKeys)
	addPhase := func(name string, p PhaseSnapshot) {
		ev.AddRow(name+" count", p.Count)
		ev.AddRow(name+" time", time.Duration(p.TotalNs))
	}
	addPhase("recovery", sn.Store.Recovery)
	addPhase("compaction", sn.Store.Compaction)
	addPhase("bulk load", sn.Store.BulkLoad)
	fmt.Fprintln(w)
	ev.Render(w)

	if sn.Store.ScanBatches > 0 {
		sc := stats.NewTable("range scans (batched)", "metric", "value")
		sc.AddRow("batches", sn.Store.ScanBatches)
		sc.AddRow("entries", sn.Store.ScanEntries)
		sc.AddRow("entries/batch", fmt.Sprintf("%.1f",
			float64(sn.Store.ScanEntries)/float64(sn.Store.ScanBatches)))
		sc.AddRow("offset-presorted ratio", fmt.Sprintf("%.3f",
			float64(sn.Store.ScanPresorted)/float64(sn.Store.ScanBatches)))
		sc.AddRow("pin yields", sn.Store.ScanPinYields)
		sc.AddRow("cursor reseeks", sn.Store.ScanReseeks)
		fmt.Fprintln(w)
		sc.Render(w)
	}

	pm := stats.NewTable("simulated pmem", "metric", "value")
	pm.AddRow("reads", sn.PMem.Reads)
	pm.AddRow("writes", sn.PMem.Writes)
	pm.AddRow("flushes", sn.PMem.Flushes)
	pm.AddRow("line reads (256B)", sn.PMem.LineReads)
	pm.AddRow("line writes (256B)", sn.PMem.LineWrites)
	pm.AddRow("read stall", time.Duration(sn.PMem.ReadStallNs))
	pm.AddRow("write stall", time.Duration(sn.PMem.WriteStallNs))
	fmt.Fprintln(w)
	pm.Render(w)

	if sn.Retrain.Workers > 0 || sn.Retrain.Submitted > 0 || sn.Retrain.Inline > 0 {
		rt := stats.NewTable("retrain pipeline", "metric", "value")
		rt.AddRow("workers", sn.Retrain.Workers)
		rt.AddRow("queue depth", sn.Retrain.QueueDepth)
		rt.AddRow("submitted", sn.Retrain.Submitted)
		rt.AddRow("coalesced", sn.Retrain.Coalesced)
		rt.AddRow("executed", sn.Retrain.Executed)
		rt.AddRow("inline (foreground)", sn.Retrain.Inline)
		rt.AddRow("background time", time.Duration(sn.Retrain.BackgroundNs))
		rt.AddRow("foreground stall", time.Duration(sn.Retrain.ForegroundNs))
		fmt.Fprintln(w)
		rt.Render(w)
	}

	if sv := sn.Server; sv.ConnsTotal > 0 || sv.Accepted > 0 || sv.Rejected > 0 {
		st := stats.NewTable("network server", "metric", "value")
		st.AddRow("conns open", sv.ConnsOpen)
		st.AddRow("conns total", sv.ConnsTotal)
		st.AddRow("in-flight", sv.InFlight)
		st.AddRow("accepted", sv.Accepted)
		st.AddRow("rejected", sv.Rejected)
		st.AddRow("bad frames", sv.BadFrames)
		st.AddRow("bytes in", sv.BytesIn)
		st.AddRow("bytes out", sv.BytesOut)
		st.AddRow("get runs (one MultiGet each)", sv.CoalesceBatches)
		st.AddRow("gets in runs", sv.CoalescedGets)
		st.AddRow("run length p50", sv.BatchP50)
		st.AddRow("run length p99", sv.BatchP99)
		st.AddRow("run length max", sv.BatchMax)
		st.AddRow("runs cut by a limit", sv.FlushFull)
		st.AddRow("runs ended by the input", sv.FlushTimer)
		st.AddRow("drains", sv.Drains)
		fmt.Fprintln(w)
		st.Render(w)
	}

	if len(sn.Search) > 0 {
		sk := stats.NewTable("last-mile search",
			"kernel", "searches", "probes", "probes/search")
		for _, ks := range sn.Search {
			per := float64(0)
			if ks.Searches > 0 {
				per = float64(ks.Probes) / float64(ks.Searches)
			}
			sk.AddRow(ks.Kernel, ks.Searches, ks.Probes, fmt.Sprintf("%.2f", per))
		}
		fmt.Fprintln(w)
		sk.Render(w)
	}

	if e := sn.Epoch; e.Retired > 0 || e.Advances > 0 {
		ep := stats.NewTable("epoch reclamation", "metric", "value")
		ep.AddRow("epoch clock", e.Epoch)
		ep.AddRow("advances", e.Advances)
		ep.AddRow("retired", e.Retired)
		ep.AddRow("freed", e.Freed)
		ep.AddRow("pending (deferred-free queue)", e.Pending)
		fmt.Fprintln(w)
		ep.Render(w)
	}

	if len(sn.Indexes) == 0 {
		return
	}
	idx := stats.NewTable("indexes",
		"index", "len", "caps", "structure(B)", "keys(B)", "depth", "retrains", "retrain time")
	for _, st := range sn.Indexes {
		idx.AddRow(st.Name, st.Len, capsString(st.Caps), st.Sizes.Structure, st.Sizes.Keys,
			fmt.Sprintf("%.2f", st.AvgDepth), st.RetrainCount, time.Duration(st.RetrainNs))
	}
	fmt.Fprintln(w)
	idx.Render(w)
}

// capsString is the compact capability legend used in the index table:
// one letter per capability (Cursor-range Delete dePth Retrain
// Async-retrain concurrent-writes), '-' when absent.
func capsString(c index.Caps) string {
	out := make([]byte, 0, 6)
	mark := func(on bool, ch byte) {
		if on {
			out = append(out, ch)
		} else {
			out = append(out, '-')
		}
	}
	mark(c.Range, 'C')
	mark(c.Delete, 'D')
	mark(c.Depth, 'P')
	mark(c.Retrain, 'R')
	mark(c.AsyncRetrain, 'A')
	mark(c.ConcurrentWrites, 'w')
	return string(out)
}
