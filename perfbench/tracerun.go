package main

import (
	"context"
	"fmt"
	"time"

	semprox "repro"
	"repro/api"
	"repro/client"
	"repro/internal/faultfs"
)

// layerMetric is one row of the per-layer table.
type layerMetric struct {
	name, unit string
	value      float64
}

// tracedRun builds the stack with every layer boundary wrapped, runs the
// fixed-rate read phase once untraced and once traced (fresh schedules
// of the same rate and length) and then the write phase traced, and
// reports the per-layer metrics of the traced phases, the tracing
// overhead on reads, and engine costs from a direct-call pass of the
// traced reads on Engine.View.
func tracedRun(ctx context.Context, w *workload, seed int64, secs time.Duration, dir string) (*result, error) {
	tr := &tracer{}
	inject := faultfs.New() // no rules: it only counts the WAL's writes and fsyncs
	st, err := buildStack(ctx, w, dir, tr, inject)
	if err != nil {
		return nil, err
	}
	defer st.close()
	g, err := warmUp(ctx, st, seed)
	if err != nil {
		return nil, err
	}
	n := len(st.names)
	count := int(w.rate * w.fixedShare * secs.Seconds())
	var errs []error
	base, _, err := openPhase(ctx, g, schedule(w, seed, phaseBase, n, count), phaseBase)
	errs = append(errs, err)

	primary := client.New(st.primaryURL, nil)
	m0, err := scrape(ctx, primary)
	if err != nil {
		return nil, err
	}
	p0 := st.prx.Counters()
	rt0, rb0, stale0 := g.tp.roundTrips.Load(), g.tp.respBytes.Load(), g.stale.Load()
	syncs0, walBytes0 := inject.Calls(faultfs.OpSync), dirBytes(st.walDir)

	ops := schedule(w, seed, phaseTraced, n, count)
	tr.on.Store(true)
	ps, samples, err := openPhase(ctx, g, ops, phaseTraced)
	errs = append(errs, err)
	direct := directPass(st, ops, samples) // before the writes move the engine on
	wops := writeSchedule(w, seed, phaseWrite, n, int(w.writeRate*w.writeShare*secs.Seconds()))
	wps, wsamples, err := openPhase(ctx, g, wops, phaseWrite)
	errs = append(errs, err)
	time.Sleep(200 * time.Millisecond) // handlers record their span just after the response leaves
	tr.on.Store(false)
	spans := tr.take()

	m1, err := scrape(ctx, primary)
	if err != nil {
		return nil, err
	}
	p1 := st.prx.Counters()
	writes := float64(wps.ok)
	opsDone := float64(ps.ok + wps.ok)
	reads := float64(ps.ok)
	all := append(append([]sample(nil), samples...), wsamples...)

	var rows []layerMetric
	add := func(name, unit string, v float64) { rows = append(rows, layerMetric{name, unit, v}) }

	// Generator health.
	add("gen.queue_wait_p99_ms", "ms", quantile(ps.waits, 0.99))
	add("gen.send_lag_p99_ms", "ms", quantile(ps.lags, 0.99))

	// Per-operation self times along the read and write paths.
	joins := joinSpans(spans)
	rd, wr := splitPath(all, joins, false), splitPath(all, joins, true)
	for _, p := range []struct {
		name string
		s    pathSplit
	}{{"read", rd}, {"write", wr}} {
		add(p.name+".e2e_mean_ms", "ms", mean(p.s.e2e))
		add(p.name+".queue_wait_mean_ms", "ms", mean(p.s.queue))
		add(p.name+".client_self_mean_ms", "ms", mean(p.s.client))
		add(p.name+".proxy_self_mean_ms", "ms", p.s.proxyMean)
		add(p.name+".server_self_mean_ms", "ms", p.s.serverMean)
	}
	// The latencies the end-to-end metrics leave out, each tail at the
	// highest percentile with ten samples beyond it: the untraced read
	// phase, and the (traced) write phase, whose ~120 writes on
	// hot_reads support a p90 but not a p99.
	add("read.p99_ms", "ms", quantile(base.lat, 0.99))
	add("write.p50_ms", "ms", quantile(wps.lat, 0.5))
	add("write.p90_ms", "ms", quantile(wps.lat, 0.9))
	add("trace.layer_sum_gap_ms", "ms", rd.sum()-mean(rd.e2e)+wr.sum()-mean(wr.e2e))
	add("trace.unjoined_ops", "count", float64(rd.unjoined+wr.unjoined))
	var engineNs, engineServerNs float64
	for i, s := range samples {
		if j := joins[s.trace]; s.ok && s.kind != opUpdate && j != nil && len(j.server) > 0 {
			engineNs += float64(direct[i])
			engineServerNs += float64(union(j.server))
		}
	}

	add("client.self_p50_ms", "ms", quantile(sortedCopy(rd.client), 0.5))
	add("client.resp_bytes_per_op", "B", ratio(float64(g.tp.respBytes.Load()-rb0), opsDone))
	add("client.round_trips_per_op", "count", ratio(float64(g.tp.roundTrips.Load()-rt0), opsDone))

	hits, misses := float64(p1.CacheHits-p0.CacheHits), float64(p1.CacheMisses-p0.CacheMisses)
	issued := float64(p1.HedgesIssued - p0.HedgesIssued)
	add("proxy.self_p50_ms", "ms", quantile(sortedCopy(rd.proxy), 0.5))
	add("proxy.self_p99_ms", "ms", quantile(sortedCopy(rd.proxy), 0.99))
	add("proxy.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	add("proxy.cache_evictions", "count", float64(p1.CacheEvictions-p0.CacheEvictions))
	add("proxy.epoch_flushes", "count", float64(p1.EpochFlushes-p0.EpochFlushes))
	add("proxy.hedge_ratio", "ratio", ratio(issued, float64(p1.Reads-p0.Reads)))
	add("proxy.hedge_win_ratio", "ratio", ratio(float64(p1.HedgesWon-p0.HedgesWon), issued))
	var fwd, forwarded float64
	for _, j := range joins {
		if j.fwd > 0 {
			fwd += float64(j.fwd)
			forwarded++
		}
	}
	add("proxy.attempts_per_forward", "count", ratio(fwd, forwarded))

	var qDur, uDur []time.Duration
	busy := make([]time.Duration, 3)
	for _, s := range spans {
		if s.layer != layerServer {
			continue
		}
		busy[s.backend] += s.dur()
		if s.path == api.PathUpdate {
			uDur = append(uDur, s.dur())
		} else {
			qDur = append(qDur, s.dur())
		}
	}
	q, u := sortedMs(qDur), sortedMs(uDur)
	add("server.query_p50_ms", "ms", quantile(q, 0.5))
	add("server.query_p99_ms", "ms", quantile(q, 0.99))
	add("server.update_p50_ms", "ms", quantile(u, 0.5))
	add("server.update_p99_ms", "ms", quantile(u, 0.99))
	add("server.primary.busy_s", "s", busy[0].Seconds())
	add("server.follower1.busy_s", "s", busy[1].Seconds())
	add("server.follower2.busy_s", "s", busy[2].Seconds())

	rankNs, anchors, proxNs, proxN := direct.totals(ops)
	add("semprox.rank_us_per_anchor", "us", ratio(rankNs/1e3, anchors))
	add("semprox.proximity_us", "us", ratio(proxNs/1e3, proxN))
	add("semprox.rank_share_of_server", "ratio", ratio(engineNs, engineServerNs))
	delta := func(k string) float64 { return m1[k] - m0[k] }
	add("semprox.apply_p50_ms", "ms", 1e3*m1[`semprox_engine_apply_seconds{quantile="0.5"}`])
	add("semprox.apply_p99_ms", "ms", 1e3*m1[`semprox_engine_apply_seconds{quantile="0.99"}`])
	add("semprox.rematched_per_update", "count", ratio(delta("semprox_engine_rematched_metagraphs_sum"), delta("semprox_engine_rematched_metagraphs_count")))
	add("semprox.compactions", "count", delta("semprox_engine_compactions_total"))

	add("wal.fsyncs_per_write", "count", ratio(float64(inject.Calls(faultfs.OpSync)-syncs0), writes))
	add("wal.batch_records_p50", "count", m1[`semprox_wal_commit_batch_records{quantile="0.5"}`])
	add("wal.fsync_p99_ms", "ms", 1e3*m1[`semprox_wal_fsync_seconds{quantile="0.99"}`])
	add("wal.bytes_per_write", "B", ratio(float64(dirBytes(st.walDir)-walBytes0), writes))

	add("replica.records_per_poll", "count", ratio(delta("semprox_replica_records_applied_total"), delta("semprox_replica_polls_total")))
	add("replica.stale_read_ratio", "ratio", ratio(float64(g.stale.Load()-stale0), reads))
	var boot float64
	for _, b := range st.bootstrap {
		boot += b.Seconds() / float64(len(st.bootstrap))
	}
	add("replica.bootstrap_s", "s", boot)
	add("replica.snapshot_mb", "MiB", float64(st.snapBytes)/(1<<20))
	add("mining.mine_s", "s", st.mine.Seconds())
	add("semprox.train_s", "s", st.train.Seconds())

	add("trace.overhead_read_p50_ms", "ms", quantile(ps.lat, 0.5)-quantile(base.lat, 0.5))
	add("trace.overhead_read_p99_ms", "ms", quantile(ps.lat, 0.99)-quantile(base.lat, 0.99))

	nChecks, err := checkConverged(ctx, st, g.acked)
	errs = append(errs, err)
	res := &result{Attempted: base.n + ps.n + wps.n + nChecks, Failed: g.failures}
	if g.firstErr != nil {
		fmt.Printf("# %d failed ops, the first: %v\n", g.failures, g.firstErr)
	}
	for _, err := range errs {
		if err != nil {
			fmt.Println("#", err)
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	for k, n := range wps.counts {
		ps.counts[k] += n
	}
	stamp(w, seed, st, ps.counts)
	fmt.Printf("# traced phases: %d reads at %.0f/s, %d writes at %.0f/s, %d spans; untraced baseline read p50 %.3fms p99 %.3fms\n",
		len(samples), w.rate, len(wsamples), w.writeRate, len(spans), quantile(base.lat, 0.5), quantile(base.lat, 0.99))
	for _, p := range []struct {
		name string
		s    pathSplit
	}{{"read", rd}, {"write", wr}} {
		if len(p.s.e2e) == 0 {
			continue
		}
		fmt.Printf("# %s path: queue %.4f + client %.4f + proxy %.4f + server %.4f = %.4f ms against a mean latency of %.4f ms over %d ops\n",
			p.name, mean(p.s.queue), mean(p.s.client), p.s.proxyMean, p.s.serverMean, p.s.sum(), mean(p.s.e2e), len(p.s.e2e))
	}
	for _, r := range rows {
		fmt.Printf("%-30s %14.6g %s\n", r.name, r.value, r.unit)
		res.set(r.name, r.unit, r.value)
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// engineTimes is the direct-call engine cost of each traced operation,
// by index: zero for updates and failed operations.
type engineTimes []time.Duration

// directPass replays the traced phase's reads serially on one View of
// the primary's engine, timing each call the server would make for it.
func directPass(st *stack, ops []op, samples []sample) engineTimes {
	v := st.eng.View()
	g := v.Graph()
	id := func(a int32) semprox.NodeID { return g.NodeByName(st.names[a]) }
	class, k := st.w.class, st.w.k
	out := make(engineTimes, len(ops))
	for i, o := range ops {
		if !samples[i].ok {
			continue
		}
		var t0 time.Time
		switch o.kind {
		case opQuery:
			q := id(o.a)
			t0 = time.Now()
			v.Query(class, q, k) //nolint:errcheck // the class is trained
		case opBatch:
			qs := make([]semprox.NodeID, len(o.batch))
			for j, a := range o.batch {
				qs[j] = id(a)
			}
			t0 = time.Now()
			v.QueryBatch(class, qs, k) //nolint:errcheck // the class is trained
		case opProximity:
			x, y := id(o.a), id(o.b)
			t0 = time.Now()
			v.Proximity(class, x, y) //nolint:errcheck // the class is trained
		default:
			continue
		}
		out[i] = time.Since(t0)
	}
	return out
}

// totals splits the pass into ranking time per anchor ranked and
// proximity time per pair scored.
func (e engineTimes) totals(ops []op) (rankNs, anchors, proxNs, proxN float64) {
	for i, o := range ops {
		if e[i] == 0 {
			continue
		}
		switch o.kind {
		case opQuery:
			rankNs += float64(e[i])
			anchors++
		case opBatch:
			rankNs += float64(e[i])
			anchors += float64(len(o.batch))
		case opProximity:
			proxNs += float64(e[i])
			proxN++
		}
	}
	return rankNs, anchors, proxNs, proxN
}

// pathSplit divides the send-scheduled latency of one class of
// operations (reads or writes) into layer self times: generator queue,
// client (loopback and codec), proxy, and server.
type pathSplit struct {
	e2e, queue, client, proxy []float64 // per joined operation, ms
	proxyMean, serverMean     float64   // from the layers' own spans, per operation
	unjoined                  int
}

func (p pathSplit) sum() float64 {
	return mean(p.queue) + mean(p.client) + p.proxyMean + p.serverMean
}

func splitPath(samples []sample, joins map[string]*joined, writes bool) pathSplit {
	var p pathSplit
	for _, s := range samples {
		if !s.ok || (s.kind == opUpdate) != writes {
			continue
		}
		p.e2e = append(p.e2e, ms(s.end-s.due))
		p.queue = append(p.queue, ms(s.sent-s.due))
		j := joins[s.trace]
		if j == nil || j.proxy == nil || (!j.proxy.hit && len(j.server) == 0) {
			p.unjoined++
			p.client = append(p.client, ms(s.end-s.sent))
			continue
		}
		su := union(j.server)
		p.client = append(p.client, ms(s.end-s.sent-j.proxy.dur()))
		p.proxy = append(p.proxy, ms(j.proxy.dur()-su))
	}
	// The proxy and server shares come from every span of the class, so
	// a span that joined no operation shows as a gap against the mean.
	var proxyTotal, serverTotal float64
	for _, j := range joins {
		if j.proxy != nil && (j.proxy.path == api.PathUpdate) == writes {
			su := union(j.server)
			proxyTotal += ms(j.proxy.dur() - su)
			serverTotal += ms(su)
		}
	}
	p.proxyMean, p.serverMean = ratio(proxyTotal, float64(len(p.e2e))), ratio(serverTotal, float64(len(p.e2e)))
	return p
}
