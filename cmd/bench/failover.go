package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	semprox "repro"
	"repro/api"
	"repro/client"
	"repro/internal/fixtures"
	"repro/internal/mining"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

// failoverReport is the BENCH_failover.json shape: the full failover
// cycle — synchronous primary, two durable followers with promotion
// monitors, kill the primary, measure how long until the SAME routed
// writer gets acks again — with the correctness side cross-checked every
// cycle (term raised to 2, every pre-kill acked write present on the
// promoted primary, the router's primary_change event observed).
type failoverReport struct {
	Benchmark    string    `json:"benchmark"`
	Followers    int       `json:"followers"`
	UpdatesAcked int       `json:"updates_acked_before_kill"`
	GoMaxProcs   int       `json:"gomaxprocs"`
	Reps         int       `json:"reps"`
	Timestamp    time.Time `json:"timestamp"`
	// RestoreMs: per-cycle wall time from closing the primary's listener
	// to the first routed update acked by the promoted follower. Includes
	// failure detection (monitor probes), the election, local-WAL replay,
	// the server role swap, and the router's re-resolution.
	RestoreMs    []float64 `json:"restore_ms"`
	BestMs       float64   `json:"best_ms"`
	PromotedTerm uint64    `json:"promoted_term"`
}

// benchFailover runs reps full failover cycles in-process and fails
// (exit non-zero, like every drift check here) if any cycle loses an
// acked write, promotes to the wrong term, or never restores writes.
func benchFailover(reps int) (*failoverReport, error) {
	rep := &failoverReport{
		Benchmark:  "failover_restore",
		Followers:  2,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Reps:       reps,
		Timestamp:  time.Now().UTC(),
	}
	for r := 0; r < reps; r++ {
		restore, acked, term, err := failoverCycle()
		if err != nil {
			return nil, fmt.Errorf("failover: cycle %d: %w", r, err)
		}
		rep.RestoreMs = append(rep.RestoreMs, float64(restore.Nanoseconds())/1e6)
		rep.UpdatesAcked = acked
		rep.PromotedTerm = term
		if rep.BestMs == 0 || rep.RestoreMs[r] < rep.BestMs {
			rep.BestMs = rep.RestoreMs[r]
		}
	}
	fmt.Printf("failover reps=%d best_restore=%7.1fms all=%v\n", reps, rep.BestMs, rep.RestoreMs)
	return rep, nil
}

// failoverCycle stands up one synchronous cluster, kills the primary and
// returns how long until writes were restored on the promoted follower.
func failoverCycle() (restore time.Duration, acked int, term uint64, err error) {
	g := fixtures.Toy()
	opts := semprox.DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 1}
	opts.Train.Restarts = 2
	opts.Train.MaxIters = 200
	eng, err := semprox.NewEngine(g, "user", opts)
	if err != nil {
		return 0, 0, 0, err
	}
	eng.Train("classmate", []semprox.Example{
		{Q: g.NodeByName("Kate"), X: g.NodeByName("Jay"), Y: g.NodeByName("Alice")},
		{Q: g.NodeByName("Bob"), X: g.NodeByName("Tom"), Y: g.NodeByName("Alice")},
	})
	dir, err := os.MkdirTemp("", "bench-failover-*")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(dir+"/p-wal", wal.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	defer w.Close()
	srv := server.New(eng)
	srv.AttachWAL(w)
	srv.SetAckReplicas(1)
	pts := httptest.NewServer(srv)
	defer pts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Two durable, promotable followers — the semproxd -state -peers kind.
	type node struct {
		f       *replica.Follower
		srv     *server.Server
		ts      *httptest.Server
		stopRun context.CancelFunc
		runDone chan error
	}
	nodes := make([]*node, 2)
	var urls []string
	for i := range nodes {
		f := replica.NewFollower(pts.URL, pts.Client())
		f.Dir = fmt.Sprintf("%s/f%d", dir, i)
		f.PollWait = 100 * time.Millisecond
		f.Backoff = 10 * time.Millisecond
		if err := f.Bootstrap(ctx); err != nil {
			return 0, 0, 0, fmt.Errorf("bootstrap follower %d: %w", i, err)
		}
		runCtx, stopRun := context.WithCancel(ctx)
		n := &node{f: f, stopRun: stopRun, runDone: make(chan error, 1)}
		go func() { n.runDone <- f.Run(runCtx) }()
		n.srv = server.New(f.Engine())
		n.srv.SetFollower(f)
		n.ts = httptest.NewServer(n.srv)
		defer n.ts.Close()
		defer f.Close() //nolint:errcheck
		nodes[i] = n
		urls = append(urls, n.ts.URL)
	}

	router := client.NewRouter(pts.URL, urls, pts.Client())
	var promotions atomic.Int64
	router.OnEvent = func(ev client.Event) {
		if ev.Type == client.EventPrimaryChange {
			promotions.Add(1)
		}
	}

	// Synchronously acked writes before the kill: each ack proves a
	// follower held the record durably, so none may be lost by failover.
	const updates = 4
	var names []string
	for i := 0; i < updates; i++ {
		name := fmt.Sprintf("pre-kill-%d", i)
		uctx, ucancel := context.WithTimeout(ctx, 30*time.Second)
		_, err := router.Update(uctx, api.UpdateRequest{
			Nodes: []api.UpdateNode{{Type: "user", Name: name}},
			Edges: []api.UpdateEdge{{U: name, V: "Kate"}},
		})
		ucancel()
		if err != nil {
			return 0, 0, 0, fmt.Errorf("pre-kill update %d: %w", i, err)
		}
		names = append(names, name)
	}
	// Let both followers reach the primary's position so the election
	// winner is fully caught up, then arm the monitors.
	deadline := time.Now().Add(30 * time.Second)
	for nodes[0].f.Status().Applied < uint64(updates) || nodes[1].f.Status().Applied < uint64(updates) {
		if time.Now().After(deadline) {
			return 0, 0, 0, fmt.Errorf("followers never caught up before the kill")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range nodes {
		go func(n *node) {
			m := &replica.Monitor{F: n.f, Self: n.ts.URL, Peers: urls,
				Interval: 20 * time.Millisecond, Threshold: 2}
			if err := m.Run(ctx); err != nil {
				return // lost the election (keeps following) or ctx ended
			}
			n.stopRun()
			<-n.runDone
			w, err := n.f.Promote()
			if err != nil {
				return
			}
			if _, err := semprox.ReplayWAL(n.f.Engine(), w); err != nil {
				return
			}
			if err := n.srv.Promote(w); err != nil {
				return
			}
			n.srv.SetAckReplicas(1)
		}(n)
	}

	pts.Close() // kill the primary
	t0 := time.Now()
	for {
		uctx, ucancel := context.WithTimeout(ctx, time.Second)
		_, err := router.Update(uctx, api.UpdateRequest{
			Nodes: []api.UpdateNode{{Type: "user", Name: "post-kill"}},
			Edges: []api.UpdateEdge{{U: "post-kill", V: "Kate"}},
		})
		ucancel()
		if err == nil {
			restore = time.Since(t0)
			break
		}
		if time.Since(t0) > 60*time.Second {
			return 0, 0, 0, fmt.Errorf("writes never restored after the kill: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Cross-checks: the router re-resolved onto a promoted backend at
	// term 2, and every pre-kill acked write survived.
	if promotions.Load() == 0 {
		return 0, 0, 0, fmt.Errorf("no primary_change event despite a restored write")
	}
	promoted := router.Primary()
	if promoted.BaseURL() == pts.URL {
		return 0, 0, 0, fmt.Errorf("router still resolves the dead primary")
	}
	ready, err := promoted.Ready(ctx)
	if err != nil {
		return 0, 0, 0, err
	}
	if ready.Role != api.RolePrimary || ready.Term != 2 {
		return 0, 0, 0, fmt.Errorf("promoted backend readyz = %+v, want primary at term 2", ready)
	}
	for _, name := range names {
		if _, err := promoted.Query(ctx, "classmate", name, 3); err != nil {
			return 0, 0, 0, fmt.Errorf("acked pre-kill write %s lost by failover: %w", name, err)
		}
	}
	return restore, len(names), ready.Term, nil
}
