package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/api"
	"repro/client"
)

// respMeta receives the transport metadata of one operation's response.
type respMeta struct{ epoch uint64 }

type metaKey struct{}

// genTransport is the generator's side of the wire: it counts round
// trips and response bytes and hands each response's epoch back to the
// operation that sent it.
type genTransport struct {
	base       http.RoundTripper
	roundTrips atomic.Uint64
	respBytes  atomic.Uint64
}

func (t *genTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.roundTrips.Add(1)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if m, ok := req.Context().Value(metaKey{}).(*respMeta); ok {
		// An update ack carries no epoch header; a read without one stays
		// at 0 and fails its reference check.
		m.epoch, _ = strconv.ParseUint(resp.Header.Get(api.HeaderEpoch), 10, 64)
	}
	resp.Body = &countBody{ReadCloser: resp.Body, n: &t.respBytes}
	return resp, nil
}

type countBody struct {
	io.ReadCloser
	n *atomic.Uint64
}

func (b *countBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(uint64(n))
	return n, err
}

// gen executes operations against the proxy through one client.Client
// whose transport allows at most lanes connections.
type gen struct {
	w     *workload
	st    *stack
	c     *client.Client
	tp    *genTransport
	ref   *reference // nil: no per-read check (the workload writes)
	lanes int

	traceSeq atomic.Uint64
	maxAcked atomic.Uint64 // newest epoch an update ack carried; stored under mu
	stale    atomic.Uint64 // reads answered below the acked epoch at send

	mu       sync.Mutex
	acked    []string // node names of acknowledged updates
	failures int
	firstErr error
}

func newGen(st *stack, lanes int, ref *reference) *gen {
	tp := &genTransport{base: &http.Transport{
		MaxConnsPerHost:     lanes,
		MaxIdleConnsPerHost: lanes,
		IdleConnTimeout:     90 * time.Second,
	}}
	return &gen{
		w:  st.w,
		st: st,
		// No Client.Timeout: over a wrapped transport net/http enforces
		// it with a goroutine per request. exec bounds each op by context.
		c:     client.New(st.proxyURL, &http.Client{Transport: tp}),
		tp:    tp,
		ref:   ref,
		lanes: lanes,
	}
}

func (g *gen) fail(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.failures++
	if g.firstErr == nil {
		g.firstErr = err
	}
}

// exec runs one operation and reports its trace ID, when its answer
// arrived (before any check), and whether it succeeded, checking read
// answers against the reference when one is set. phase and lane name
// the nodes updates add.
func (g *gen) exec(ctx context.Context, o op, phase, lane int) (string, time.Time, bool) {
	id := "pb-" + strconv.FormatUint(g.traceSeq.Add(1), 10)
	meta := &respMeta{}
	ctx, cancel := context.WithTimeout(ctx, client.DefaultTimeout)
	defer cancel()
	ctx = context.WithValue(client.WithTrace(ctx, id), metaKey{}, meta)
	floor := g.maxAcked.Load()
	var err error
	var answered time.Time
	name := func(i int32) string { return g.st.names[i] }
	switch o.kind {
	case opQuery:
		var resp api.QueryResponse
		resp, err = g.c.Query(ctx, g.w.class, name(o.a), g.w.k)
		if answered = time.Now(); err == nil && g.ref != nil {
			err = g.ref.checkQuery(meta.epoch, []int32{o.a}, resp)
		}
	case opBatch:
		qs := make([]string, len(o.batch))
		for i, a := range o.batch {
			qs[i] = name(a)
		}
		var resp api.QueryResponse
		resp, err = g.c.QueryBatch(ctx, g.w.class, qs, g.w.k)
		if answered = time.Now(); err == nil && g.ref != nil {
			err = g.ref.checkQuery(meta.epoch, o.batch, resp)
		}
	case opProximity:
		var resp api.ProximityResponse
		resp, err = g.c.Proximity(ctx, g.w.class, name(o.a), name(o.b))
		if answered = time.Now(); err == nil && g.ref != nil {
			err = g.ref.checkProximity(meta.epoch, o.a, o.b, resp)
		}
	case opUpdate:
		added := fmt.Sprintf("pb%d-%d-%d", phase, lane, o.seq)
		req := api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: added}}}
		if !o.bare {
			req.Edges = []api.UpdateEdge{{U: added, V: name(o.a)}}
		}
		var resp api.UpdateResponse
		resp, err = g.c.Update(ctx, req)
		if answered = time.Now(); err == nil {
			g.mu.Lock()
			g.acked = append(g.acked, added)
			if resp.Epoch > g.maxAcked.Load() {
				g.maxAcked.Store(resp.Epoch)
			}
			g.mu.Unlock()
		}
	}
	if err != nil {
		g.fail(fmt.Errorf("%s: %w", o.kind, err))
		return id, answered, false
	}
	if o.kind != opUpdate && meta.epoch < floor {
		g.stale.Add(1)
	}
	return id, answered, true
}

// sample is one operation of an open-loop phase. Times are offsets from
// the phase start.
type sample struct {
	kind  opKind
	ok    bool
	trace string
	due   time.Duration // scheduled send
	free  time.Duration // a sender was free to take it: the later of due and its claim
	sent  time.Duration // the sender woke and began it
	end   time.Duration // its answer arrived, before any check of it
}

// openLoop replays the schedule at its arrival times on g.lanes sender
// goroutines and returns one sample per operation. Each sender claims
// the next operation, sleeps until it is due and sends it, so an
// operation waits only while every sender is busy. Latency runs from the
// scheduled send, so a stall is charged to every operation queued behind
// it. Senders sleep with nanosleep: the Go timer wakes up to a
// millisecond late, which would show as latency.
func openLoop(ctx context.Context, g *gen, ops []op, phase int) []sample {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for lane := 0; lane < g.lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o, s := ops[i], &samples[i]
				s.kind, s.due = o.kind, o.at
				s.free = max(o.at, time.Since(start))
				for d := o.at - time.Since(start); d > 0; d = o.at - time.Since(start) {
					ts := syscall.NsecToTimespec(int64(d))
					syscall.Nanosleep(&ts, nil) //nolint:errcheck // an interrupted sleep is resumed by the loop
				}
				s.sent = time.Since(start)
				var answered time.Time
				s.trace, answered, s.ok = g.exec(ctx, o, phase, lane)
				s.end = answered.Sub(start)
			}
		}()
	}
	wg.Wait()
	return samples
}

// satWindow is the window the saturation phase counts completions in.
const satWindow = 500 * time.Millisecond

// closedLoop runs g.lanes senders back to back for d, each drawing its
// own op stream. It returns the completed and failed operation counts
// and the operations completed per second in each satWindow.
func closedLoop(ctx context.Context, g *gen, seed int64, phase int, d time.Duration) (done, failed int, rates []float64) {
	windows := int(d / satWindow)
	if windows < 1 {
		windows = 1
	}
	perWindow := make([]atomic.Int64, windows)
	var nDone, nFailed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	win := d / time.Duration(windows)
	for lane := 0; lane < g.lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newStream(g.w, seed, phase, lane, len(g.st.names))
			for ctx.Err() == nil && time.Since(start) < d {
				_, answered, ok := g.exec(ctx, s.next(), phase, lane)
				if !ok {
					nFailed.Add(1)
					continue
				}
				nDone.Add(1)
				if w := int(answered.Sub(start) / win); w < windows {
					perWindow[w].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	rates = make([]float64, windows)
	for i := range perWindow {
		rates[i] = float64(perWindow[i].Load()) / win.Seconds()
	}
	return int(nDone.Load()), int(nFailed.Load()), rates
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (g *gen) proxyClient() *client.Client { return client.New(g.st.proxyURL, nil) }

// proxyOps is the proxy's count of benchmark requests served so far.
func proxyOps(ctx context.Context, g *gen) (float64, error) {
	s, err := scrape(ctx, g.proxyClient())
	if err != nil {
		return 0, fmt.Errorf("scraping the proxy: %w", err)
	}
	return s.readOps(), nil
}
