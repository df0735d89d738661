package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	semprox "repro"
	"repro/client"
	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/mining"
	"repro/internal/proxy"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

// datasetSeed fixes the generated graph: the run seed varies the traffic,
// not the metagraph set the engine mines.
const datasetSeed = 1

// Deployment settings of the edge tier.
const (
	proxyCacheEntries = 4096
	slowRequest       = 500 * time.Millisecond // the daemons' -slow-query default
)

// stack is the deployed topology over loopback: a trained engine behind a
// WAL-attached primary, two followers bootstrapped by snapshot and
// streaming from it, and an edge proxy over a client.Router.
type stack struct {
	w            *workload
	eng          *semprox.Engine // the primary's engine
	followers    []*replica.Follower
	prx          *proxy.Proxy
	proxyURL     string
	primaryURL   string
	followerURLs []string
	names        []string // anchor names, sorted
	nodes, edges int      // the graph as built, before any update
	walDir       string

	// Set-up timings.
	setup     time.Duration
	mine      time.Duration // NewEngine
	train     time.Duration // Train, lazy matching included
	bootstrap []time.Duration
	snapBytes int64

	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// quietLog is the daemons' per-request log line (on by default in
// semproxd and semproxy), rendered and then discarded so it costs what
// it costs in deployment without flooding the benchmark's output.
func quietLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// serverTransport is the pool the serving tiers use towards each other,
// sized the way internal/proxy sizes its own default.
func serverTransport() *http.Transport {
	return &http.Transport{MaxIdleConns: 1024, MaxIdleConnsPerHost: 512, IdleConnTimeout: 90 * time.Second}
}

// buildStack stands the topology up from nothing and times it. dir holds
// the primary's WAL. tr, when non-nil, wraps every layer boundary with
// span recorders; inject, when non-nil, counts the WAL's writes and
// fsyncs.
func buildStack(ctx context.Context, w *workload, dir string, tr *tracer, inject *faultfs.Injector) (*stack, error) {
	s := &stack{w: w}
	start := time.Now()
	fail := func(err error) (*stack, error) {
		s.close()
		return nil, err
	}

	ds := dataset.LinkedIn(dataset.Config{Users: w.users, Seed: datasetSeed, NoiseRate: 0.05})
	labels, ok := ds.Classes[w.class]
	if !ok {
		return nil, fmt.Errorf("dataset has no class %q", w.class)
	}
	opts := semprox.DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: w.maxNodes, MinSupport: 5}
	opts.Train.Restarts = w.restarts
	opts.Train.MaxIters = w.maxIters
	t0 := time.Now()
	eng, err := semprox.NewEngine(ds.G, "user", opts)
	if err != nil {
		return nil, err
	}
	s.mine = time.Since(t0)
	t0 = time.Now()
	eng.Train(w.class, semprox.MakeExamples(labels, labels.Queries(), ds.Users(), w.nExamples, datasetSeed))
	s.train = time.Since(t0)
	s.eng = eng

	s.walDir, err = os.MkdirTemp(dir, "wal-")
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { os.RemoveAll(s.walDir) })
	log, err := wal.Open(s.walDir, wal.Options{BaseLSN: eng.LSN(), Inject: inject})
	if err != nil {
		return fail(err)
	}
	s.closers = append(s.closers, func() { log.Close() })
	runCtx, stopRun := context.WithCancel(ctx)

	primary := server.New(eng)
	primary.AttachWAL(log)
	primary.SetRequestLog(quietLog(), slowRequest)
	pts := httptest.NewServer(tr.wrapServer(0, primary))
	s.closers = append(s.closers, pts.Close, primary.WaitCompactions)
	s.primaryURL = pts.URL

	// Followers stream until runCtx ends; their goroutines are waited
	// for before the primary shuts down.
	done := make(chan struct{})
	running := 0
	s.closers = append(s.closers, func() {
		stopRun()
		for ; running > 0; running-- {
			<-done
		}
	})
	for i := 0; i < 2; i++ {
		f := replica.NewFollower(pts.URL, nil)
		// loadgen's follower settings: with the 10s default long-poll a
		// fresh follower enters rotation only when its first poll times
		// out, and set-up would measure that timer.
		f.PollWait = 200 * time.Millisecond
		f.Backoff = 20 * time.Millisecond
		t0 := time.Now()
		if err := f.Bootstrap(ctx); err != nil {
			return fail(fmt.Errorf("bootstrap follower %d: %w", i, err))
		}
		s.bootstrap = append(s.bootstrap, time.Since(t0))
		running++
		go func() {
			defer func() { done <- struct{}{} }()
			f.Run(runCtx) //nolint:errcheck // ends with runCtx
		}()
		fsrv := server.New(f.Engine())
		fsrv.SetFollower(f)
		fsrv.SetRequestLog(quietLog(), slowRequest)
		fts := httptest.NewServer(tr.wrapServer(i+1, fsrv))
		s.closers = append(s.closers, fts.Close)
		s.followers = append(s.followers, f)
		s.followerURLs = append(s.followerURLs, fts.URL)
	}

	back := client.NewRouter(s.primaryURL, s.followerURLs, &http.Client{Transport: serverTransport(), Timeout: client.DefaultTimeout})
	fwd := &http.Client{Transport: tr.wrapTransport(serverTransport()), Timeout: client.DefaultTimeout}
	s.prx = proxy.New(back, proxy.Options{CacheEntries: proxyCacheEntries, Hedge: true, HTTPClient: fwd})
	s.prx.SetRequestLog(quietLog(), slowRequest)
	for back.Probe(ctx) < len(s.followerURLs) {
		if time.Since(start) > time.Minute {
			return fail(fmt.Errorf("followers never entered the proxy's rotation"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	running++
	go func() {
		defer func() { done <- struct{}{} }()
		back.Run(runCtx) //nolint:errcheck // ends with runCtx
	}()
	xts := httptest.NewServer(tr.wrapProxy(s.prx))
	s.closers = append(s.closers, xts.Close)
	s.proxyURL = xts.URL
	s.setup = time.Since(start)

	var cw countWriter
	if err := eng.Save(&cw); err != nil {
		return fail(err)
	}
	s.snapBytes = cw.n

	g := eng.Graph()
	s.nodes, s.edges = g.NumNodes(), g.NumEdges()
	for _, q := range g.NodesOfType(g.Types().ID("user")) {
		s.names = append(s.names, g.Name(q))
	}
	sort.Strings(s.names)
	return s, nil
}

// countWriter counts the bytes written through it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
