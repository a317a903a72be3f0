package main

import (
	"runtime"

	"learnedpieces/internal/index"
	"learnedpieces/internal/search"
	"learnedpieces/internal/wire"
)

// The traced run's boundary passes: after the store-level passes, the
// same ops are replayed through each lower layer on its own — bare
// index, last-mile search, codec, depth-1 client — as separate passes,
// so each keeps its own cache profile, and the per-layer metrics are
// computed from those timings and from the counters the layers publish.
// Nothing here is checked: answers were checked in the store passes.

var sink uint64 // keeps the compiler from dropping unchecked calls

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timed calls f(i) for i in [0,n), records a span for sampled i, and
// returns the mean ns per call. When pass names a store pass, f(i) is
// the part of that pass's op i that ran inside a lower layer, and the
// span becomes a child of the op's store-call span.
func (r *run) timed(pass, layer, name string, n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	base, replay := r.tr.bases[pass]
	if !replay {
		base = r.tr.phase(layer + "." + name)
	}
	t0 := r.tr.now()
	for i := 0; i < n; i++ {
		if sampled(i) {
			s := r.tr.now()
			f(i)
			if replay {
				r.tr.child(base+int64(i), layer, name, s, r.tr.now())
			} else {
				r.tr.root(base+int64(i), layer, name, s, r.tr.now())
			}
		} else {
			f(i)
		}
	}
	total := float64(r.tr.now() - t0)
	r.tr.aggregate(layer, name, int64(n), total)
	return total / float64(n)
}

func (r *run) clientProbe(srv *served) error {
	n := max(int(clientProbeOps*r.o.scale), 256)
	s := r.models[0].generate(mix{get: 0.9, scan: 0.1}, n, 0)
	cpu0, m0 := cpuNs(), srv.srv.Metrics()
	p, err := runClientProbe(srv.addr, s, r.tr)
	if err != nil {
		return err
	}
	if !r.w.wire {
		r.wire = srv.totals(len(s.ops), cpuNs()-cpu0, m0)
	}
	r.probe = p
	r.res.Attempted += len(s.ops)
	r.res.Failed += p.failed
	return nil
}

func (r *run) layers() error {
	cfg, res := r.cfgs[0], r.res
	if !r.w.wire {
		srv, err := serve(cfg)
		if err != nil {
			return err
		}
		err = r.clientProbe(srv)
		if serr := srv.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
	}
	get, mg, scan, put, del := r.phases["get"], r.phases["multiget"], r.phases["range"], r.phases["put"], r.phases["delete"]
	getOps, mgS, scanOps, putOps := r.streams["get"].ops, r.streams["multiget"], r.streams["range"].ops, r.streams["put"].ops

	// Bare index: the same keys, no store, no region.
	for i, c := range r.cfgs {
		idx := c.store.Index()
		name, pass := "index."+c.index+".get_ns", ""
		if i == 0 {
			// The primary's lookups happened inside the get pass's store calls.
			name, pass = "index.get_ns", "get"
		}
		res.set(name, r.timed(pass, "index", c.index+".get", len(getOps), func(i int) {
			off, _ := idx.Get(getOps[i].key)
			sink += off
		}))
	}
	idxGet := res.Metrics["index.get_ns"].Value
	idx := cfg.store.Index()
	seam := index.Seams(idx)
	offs, found := make([]uint64, multiGetBatch), make([]bool, multiGetBatch)
	batchNs := r.timed("multiget", "index", "getbatch16", len(mgS.ops), func(i int) {
		keys := mgS.mgKeys[mgS.ops[i].key : mgS.ops[i].key+multiGetBatch]
		if seam.Batch != nil {
			seam.Batch.GetBatch(keys, offs, found)
			return
		}
		for _, k := range keys {
			off, _ := idx.Get(k)
			sink += off
		}
	}) / multiGetBatch
	res.set("index.getbatch16_ns_per_key", batchNs)

	curKeys, curVals := make([]uint64, maxRangeLen), make([]uint64, maxRangeLen)
	walked := 0
	rangeCallNs := r.timed("range", "index", "range", len(scanOps), func(i int) {
		if seam.Range == nil {
			return
		}
		cur := seam.Range.Range(scanOps[i].key)
		for left := int(scanOps[i].n); left > 0; {
			m := cur.Next(curKeys[:left], curVals[:left])
			if m == 0 {
				break
			}
			left -= m
			walked += m
		}
		cur.Close()
	})
	idxRangeNs := ratio(rangeCallNs*float64(len(scanOps)), float64(walked))
	res.set("index.range_ns_per_key", idxRangeNs)

	// A bulk-loaded twin of the index takes the put pass's inserts bare.
	twin := cfg.fresh()
	loaded := r.loaded
	fake := make([]uint64, len(loaded))
	for i := range fake {
		fake[i] = uint64(i * recordBytes)
	}
	t0 := r.tr.now()
	if err := index.LoadSorted(twin, loaded, fake); err != nil {
		return err
	}
	res.set("index.bulkload_s", float64(r.tr.now()-t0)/1e9)
	// The put pass again, as the store drives the index: InsertReplace
	// where the index has it, else Get then Insert.
	var upserts []uint32
	var upsertNs float64
	base := r.tr.bases["put"]
	twinSeam := index.Seams(twin)
	for i, o := range putOps {
		s := r.tr.now()
		var err error
		if twinSeam.Upsert != nil {
			_, err = twinSeam.Upsert.InsertReplace(o.key, o.want)
		} else {
			off, _ := twin.Get(o.key)
			sink += off
			err = twin.Insert(o.key, o.want)
		}
		if err != nil {
			return err
		}
		e := r.tr.now()
		upsertNs += float64(e - s)
		if o.kind == kInsert {
			upserts = append(upserts, uint32(e-s))
		}
		if sampled(i) {
			r.tr.child(base+int64(i), "index", "upsert", s, e)
		}
	}
	up := digest(upserts)
	r.tr.aggregate("index", "upsert", int64(len(putOps)), upsertNs)
	res.set("index.upsert_p50_ns", up.P50)
	res.set("index.upsert_p99_ns", up.P99)
	depth, _ := index.DepthOf(idx)
	res.set("index.depth", depth)
	retrains, _, _ := index.RetrainStatsOf(idx)
	res.set("index.retrain_count", float64(retrains))
	res.set("index.retrain_ns_per_put", ratio(float64(put.counters.RetrainNs), float64(put.ops)))

	// Last-mile search: the counters the kernels publish over the get
	// pass, and the kernel itself on a 64-slot window of the key array.
	res.set("search.probes_per_search", ratio(float64(get.counters.Probes), float64(get.counters.Searches)))
	keys := r.models[0].keys
	res.set("search.lowerbound_w64_ns", r.timed("", "search", "lowerbound_w64", len(getOps), func(i int) {
		p := int(uint64(i) * golden % uint64(len(keys)))
		lo := max(p-32, 0)
		sink += uint64(search.LowerBound(keys, keys[p], lo, min(lo+64, len(keys))))
	}))

	// PMem: what the region charged per op of each pure pass.
	per := func(total int64, n int) float64 { return ratio(float64(total), float64(n)) }
	getStall := per(get.counters.ReadStallNs, get.ops)
	mgStall := per(mg.counters.ReadStallNs, mg.entries)
	putStall := per(put.counters.WriteStallNs, put.ops)
	scanStall := per(scan.counters.ReadStallNs, scan.entries)
	res.set("pmem.lines_read_per_get", per(get.counters.LineReads, get.ops))
	res.set("pmem.read_stall_ns_per_get", getStall)
	res.set("pmem.lines_read_per_multiget_key", per(mg.counters.LineReads, mg.entries))
	res.set("pmem.read_stall_ns_per_multiget_key", mgStall)
	res.set("pmem.lines_written_per_put", per(put.counters.LineWrites, put.ops))
	res.set("pmem.write_stall_ns_per_put", putStall)
	res.set("pmem.flushes_per_put", per(put.counters.Flushes, put.ops))
	res.set("pmem.lines_read_per_range_key", per(scan.counters.LineReads, scan.entries))
	res.set("pmem.reads_per_range_key", per(scan.counters.Reads, scan.entries))
	res.set("pmem.read_stall_ns_per_range_key", scanStall)

	// Store: self time is the store call minus the bare index minus the
	// stall, all as means over the same ops.
	storeGet := get.mean(cGet)
	res.set("viper.get_self_ns", storeGet-idxGet-getStall)
	res.set("viper.multiget_self_ns_per_key", mg.mean(cMultiGet)/multiGetBatch-batchNs-mgStall)
	res.set("viper.put_self_ns", put.mean(cPut)-ratio(upsertNs, float64(len(putOps)))-putStall)
	res.set("viper.range_self_ns_per_key", ratio(scan.mean(cRange)*float64(scan.ops), float64(scan.entries))-idxRangeNs-scanStall)
	res.set("viper.get_allocs_per_op", per(get.counters.Mallocs, get.ops))
	res.set("viper.put_allocs_per_op", per(put.counters.Mallocs, put.ops))
	res.set("viper.range_allocs_per_op", per(scan.counters.Mallocs, scan.ops))
	res.setRounds("viper.get_p99_ns", get.perRound(cGet, p99)...)
	res.setRounds("viper.put_p99_ns", put.perRound(cPut, p99)...)
	res.setRounds("viper.put_p999_ns", put.perRound(cPut, p999)...)
	res.setRounds("viper.delete_p50_ns", del.perRound(cDelete, p50)...)
	snap := cfg.sink.Snapshot()
	res.set("viper.page_rollovers", float64(snap.Store.PageRollovers))
	res.set("viper.scan_batches_per_range", per(scan.counters.ScanBatches, scan.ops))
	res.set("viper.scan_reseeks", float64(scan.counters.ScanReseeks))

	// Retrain pool (it only exists in vipersrv's async mode; inline
	// retrains show in index.retrain_*).
	rt := snap.Retrain
	res.set("retrain.executed", float64(rt.Executed))
	inline := 1.0
	if rt.Executed > 0 {
		inline = float64(rt.Inline) / float64(rt.Executed)
	}
	res.set("retrain.inline_share", inline)
	res.set("retrain.coalesced_share", ratio(float64(rt.Coalesced), float64(rt.Submitted)))
	res.set("retrain.background_share", ratio(float64(rt.BackgroundNs), float64(rt.BackgroundNs+rt.ForegroundNs)))

	// Codec: the get pass's keys as frames.
	val := bulkValue()
	var buf []byte
	encReq := r.timed("", "wire", "encode_get_req", len(getOps), func(i int) {
		buf = wire.AppendRequest(buf[:0], &wire.Request{ID: uint64(i), Op: wire.OpGet, Key: getOps[i].key})
	})
	reqFrame := append([]byte(nil), buf...)
	decReq := r.timed("", "wire", "decode_get_req", len(getOps), func(i int) {
		req, _ := wire.DecodeRequest(reqFrame[4:])
		sink += req.Key
	})
	encResp := r.timed("", "wire", "encode_get_resp", len(getOps), func(i int) {
		buf = wire.AppendResponse(buf[:0], &wire.Response{ID: uint64(i), Value: val})
	})
	respFrame := append([]byte(nil), buf...)
	decResp := r.timed("", "wire", "decode_get_resp", len(getOps), func(i int) {
		resp, _ := wire.DecodeResponse(wire.OpGet, respFrame[4:])
		sink += uint64(len(resp.Value))
	})
	res.set("wire.encode_get_req_ns", encReq)
	res.set("wire.decode_get_req_ns", decReq)
	res.set("wire.encode_get_resp_ns", encResp)
	res.set("wire.decode_get_resp_ns", decResp)

	// Server and client, from the workload's wire traffic.
	wt, sm := r.wire, r.wire.srv
	res.set("wire.bytes_in_per_op", per(sm.BytesIn, wt.ops))
	res.set("wire.bytes_out_per_op", per(sm.BytesOut, wt.ops))
	res.set("server.coalesce_batch_p50", float64(sm.BatchP50))
	res.set("server.coalesced_share", ratio(float64(sm.CoalescedGets), float64(sm.Accepted)))
	res.set("server.flush_timer_share", ratio(float64(sm.FlushTimer), float64(sm.CoalesceBatches)))
	res.set("server.rejected_share", ratio(float64(sm.Rejected), float64(sm.Accepted+sm.Rejected)))
	res.set("server.cpu_ns_per_op", per(wt.cpuNs, wt.ops))
	if wr := r.phases["wire-range"]; wr != nil {
		res.setRounds("server.range_p50_ns", wr.perRound(cRange, p50)...)
	} else {
		res.set("server.range_p50_ns", r.probe.scan.P50)
	}
	res.set("client.rtt_depth1_p50_ns", r.probe.get.P50)
	res.set("client.allocs_per_op", r.probe.allocsPer)
	res.set("server.rtt_self_ns", r.probe.get.P50-storeGet-encReq-decReq-encResp-decResp)

	if err := r.telemetryOverhead(getOps); err != nil {
		return err
	}
	main := r.phases["main"]
	res.set("trace.overhead_ratio",
		median(main.rates(func(rs roundStat) bool { return !rs.Traced }))/
			median(main.rates(func(rs roundStat) bool { return rs.Traced })))
	return nil
}

// telemetryOverhead times the same Gets on two fresh bulk-loaded
// stores, one with a sink attached and one without, in alternating
// rounds.
func (r *run) telemetryOverhead(getOps []op) error {
	loaded := r.loaded
	var twins [2]*config
	for i := range twins {
		c, err := openConfig(primaryIndex, loaded, len(loaded), r.w, i == 0)
		if err != nil {
			return err
		}
		defer func() { _ = c.store.Close() }()
		twins[i] = c
	}
	const rounds = 6
	n := min(len(getOps)/rounds, len(loaded))
	var ns [2][]float64
	for round := 0; round < rounds; round++ {
		for i, c := range twins {
			t0 := r.tr.now()
			for j := 0; j < n; j++ {
				v, _ := c.store.Get(loaded[uint64(round*n+j)*golden%uint64(len(loaded))])
				sink += uint64(len(v))
			}
			ns[i] = append(ns[i], float64(r.tr.now()-t0)/float64(n))
		}
	}
	r.res.set("telemetry.get_overhead_ratio", median(ns[0])/median(ns[1]))
	return nil
}
