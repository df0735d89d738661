package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The generator is bounded: however far behind its schedule it falls,
// it keeps at most lanes requests in flight on at most lanes
// connections, and starts no goroutine per request.
func TestGeneratorIsBounded(t *testing.T) {
	const lanes = 2
	var inflight, maxInflight, maxGoroutines atomic.Int64
	var mu sync.Mutex
	conns := map[net.Conn]bool{}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for m := maxInflight.Load(); n > m && !maxInflight.CompareAndSwap(m, n); m = maxInflight.Load() {
		}
		for g, m := int64(runtime.NumGoroutine()), maxGoroutines.Load(); g > m && !maxGoroutines.CompareAndSwap(m, g); m = maxGoroutines.Load() {
		}
		time.Sleep(time.Millisecond)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"class":"college","k":10,"results":[]}`))
	}))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			mu.Lock()
			conns[c] = true
			mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()

	w := &workload{name: "bound", class: "college", k: 10, rate: 1e6, mix: [numOpKinds]float64{opQuery: 1}}
	st := &stack{w: w, proxyURL: srv.URL, names: []string{"a", "b", "c"}}
	g := newGen(st, lanes, nil)
	before := runtime.NumGoroutine()
	// A million arrivals a second: the whole schedule is due at once and
	// queues behind the senders.
	samples := openLoop(context.Background(), g, schedule(w, 1, phaseFixed, 3, 300), phaseFixed)
	done, failed, _ := closedLoop(context.Background(), g, 1, phaseSat, 100*time.Millisecond)
	for _, s := range samples {
		if !s.ok {
			t.Fatalf("op failed: %v", g.firstErr)
		}
	}
	if failed != 0 || done == 0 {
		t.Fatalf("closed loop: %d done, %d failed (%v)", done, failed, g.firstErr)
	}
	if m := maxInflight.Load(); m > lanes {
		t.Errorf("%d requests in flight at once, bound %d", m, lanes)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(conns) > lanes {
		t.Errorf("%d connections opened, bound %d", len(conns), lanes)
	}
	// Senders, plus per connection the transport's read and write loops
	// and the server's handler goroutine.
	if limit := int64(before + lanes + 3*lanes + 2); maxGoroutines.Load() > limit {
		t.Errorf("%d goroutines while serving, limit %d: the generator fans out per request", maxGoroutines.Load(), limit)
	}
}
