package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// warmup is the untimed open-loop lead-in that fills the proxy cache and
// the connection pools before the measured phases.
const warmup = 2 * time.Second

// The generator is valid while its median wake-up lateness (from the
// moment a sender was free and the operation due to the moment it
// began sending) stays under lagShare of the phase's median latency:
// beyond that the generator, not the stack, would set the latency
// counted from the scheduled send. The tail of the lateness is not held
// to this: with the stack in the same process, a sender wakes late when
// ranking or re-matching holds both Ps, and a request sent on time would
// have waited for a P in the server just as long.
const lagShare = 0.5

// phaseStats summarises an open-loop phase, all reads or all writes.
type phaseStats struct {
	lat         []float64 // sorted send-scheduled latencies, ms
	lags, waits []float64 // sorted sender wake-up lateness and wait for a free sender, ms
	n, ok       int       // operations scheduled and succeeded
	counts      map[string]int
	cpu         time.Duration // process CPU while the phase ran
}

func summarise(samples []sample) phaseStats {
	ps := phaseStats{n: len(samples), counts: make(map[string]int)}
	var lat, lags, waits []time.Duration
	for _, s := range samples {
		ps.counts[s.kind.String()]++
		if !s.ok {
			continue
		}
		ps.ok++
		lat = append(lat, s.end-s.due)
		lags = append(lags, s.sent-s.free)
		waits = append(waits, s.free-s.due)
	}
	ps.lat, ps.lags, ps.waits = sortedMs(lat), sortedMs(lags), sortedMs(waits)
	return ps
}

// runPhase runs f and checks that the requests the generator put on the
// wire meanwhile equal the requests the proxy counted.
func runPhase(ctx context.Context, g *gen, f func()) error {
	before, err := proxyOps(ctx, g)
	if err != nil {
		return err
	}
	rt0 := g.tp.roundTrips.Load()
	f()
	sent := float64(g.tp.roundTrips.Load() - rt0)
	if served := servedOps(ctx, g.proxyClient(), before+sent) - before; served != sent {
		return fmt.Errorf("generator sent %v requests, proxy counted %v", sent, served)
	}
	return nil
}

// openPhase replays ops open-loop, cross-checks the request count, and
// declares the phase invalid when the generator kept its schedule too
// loosely (lagShare).
func openPhase(ctx context.Context, g *gen, ops []op, phase int) (phaseStats, []sample, error) {
	var samples []sample
	var cpu time.Duration
	err := runPhase(ctx, g, func() {
		cpu0 := cpuTime()
		samples = openLoop(ctx, g, ops, phase)
		cpu = cpuTime() - cpu0
	})
	ps := summarise(samples)
	ps.cpu = cpu
	if lag, lat := quantile(ps.lags, 0.5), quantile(ps.lat, 0.5); err == nil && lag > lagShare*lat {
		err = fmt.Errorf("invalid: generator median wake-up lateness %.3fms exceeds %g of the median latency %.3fms", lag, lagShare, lat)
	}
	return ps, samples, err
}

// measuredRun is the untraced run. It builds the stack w.setupBuilds
// times, serving no traffic, and reports the median build as setup_s;
// the last build then serves every measured phase: the fixed-rate read
// phase (read_p50_ms, cpu_ms_per_op), the saturation phase (max_ops_s,
// the interquartile mean of its windows) and the write phase
// (write_cpu_ms_per_op). heap_mb is the live heap before the write
// phase, with the proxy cache full from the reads: the writes flush the
// cache, and the heap after them varied by ~10% between runs.
func measuredRun(ctx context.Context, w *workload, seed int64, secs time.Duration, dir string) (*result, error) {
	var setups []float64
	var st *stack
	for i := 0; i < w.setupBuilds; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		var err error
		if st, err = buildStack(ctx, w, dir, nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, st.setup.Seconds())
	}
	defer st.close()

	g, err := warmUp(ctx, st, seed)
	if err != nil {
		return nil, err
	}
	share := func(f float64) time.Duration { return time.Duration(f * float64(secs)) }
	var errs []error
	fixed, _, err := openPhase(ctx, g, schedule(w, seed, phaseFixed, len(st.names), int(w.rate*share(w.fixedShare).Seconds())), phaseFixed)
	errs = append(errs, err)
	var satOps int
	var rates []float64
	errs = append(errs, runPhase(ctx, g, func() {
		done, failed, r := closedLoop(ctx, g, seed, phaseSat, share(w.satShare))
		satOps, rates = done+failed, r
	}))
	heapMB := liveHeapMB()
	wp, _, err := openPhase(ctx, g, writeSchedule(w, seed, phaseWrite, len(st.names), int(w.writeRate*share(w.writeShare).Seconds())), phaseWrite)
	errs = append(errs, err)
	checks, err := checkConverged(ctx, st, g.acked)
	errs = append(errs, err)

	res := &result{Attempted: fixed.n + satOps + wp.n + checks, Failed: g.failures}
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

	counts := fixed.counts
	for k, n := range wp.counts {
		counts[k] += n
	}
	stamp(w, seed, st, counts)
	fmt.Printf("# setup %d builds; %d fixed-rate reads at %.0f/s, %d saturation windows on %d connections, %d writes at %.0f/s\n",
		len(setups), fixed.n, w.rate, len(rates), g.lanes, wp.n, w.writeRate)
	fmt.Printf("# error_ratio=%g over %d ops\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"read latency", fixed.lat}, {"write latency", wp.lat}, {"generator wake-up lateness", fixed.lags}, {"wait for a free sender", fixed.waits}} {
		fmt.Printf("# %s ms: p50 %.3f p90 %.3f p99 %.3f over %d\n", c.name,
			quantile(c.xs, 0.5), quantile(c.xs, 0.9), quantile(c.xs, 0.99), len(c.xs))
	}

	res.set("setup_s", "s", median(setups))
	res.set("read_p50_ms", "ms", quantile(fixed.lat, 0.5))
	res.set("max_ops_s", "ops/s", midMean(rates))
	res.set("cpu_ms_per_op", "ms", ms(fixed.cpu)/float64(max(fixed.ok, 1)))
	res.set("write_cpu_ms_per_op", "ms", ms(wp.cpu)/float64(max(wp.ok, 1)))
	res.set("heap_mb", "MiB", heapMB)
	return res, nil
}

// warmUp builds the generator with its read reference and runs the
// untimed lead-in.
func warmUp(ctx context.Context, st *stack, seed int64) (*gen, error) {
	ref, err := newReference(st)
	if err != nil {
		return nil, err
	}
	g := newGen(st, runtime.NumCPU(), ref)
	openLoop(ctx, g, schedule(st.w, seed, phaseWarm, len(st.names), int(st.w.rate*warmup.Seconds())), phaseWarm)
	return g, nil
}

// liveHeapMB forces a GC and returns the live heap: the three engines,
// the proxy cache and the WAL, next to the benchmark's own state (the
// read reference and the read phase's samples, a few MiB at most).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
