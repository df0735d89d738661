package main

import (
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/proxy"
)

// Span layers, outermost first.
const (
	layerProxy  = iota // the proxy's handler
	layerFwd           // one proxy→backend attempt, through proxy.Options.HTTPClient
	layerServer        // a backend's handler
)

// span is one timed call at a layer boundary, joined to its operation by
// the trace ID the generator sets with client.WithTrace.
type span struct {
	layer   uint8
	backend int8 // layerServer: 0 primary, 1 and 2 followers
	hit     bool // layerProxy: answered from the proxy cache
	path    string
	trace   string
	start   time.Time
	end     time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory while on. A nil tracer wraps nothing.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// traced reports whether path is an operation the benchmark sends.
func traced(path string) bool {
	return path == api.PathQuery || path == api.PathProximity || path == api.PathUpdate
}

func (t *tracer) wrapServer(backend int, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if p := api.CanonicalPath(r.URL.Path); traced(p) {
			t.record(span{layer: layerServer, backend: int8(backend), path: p, trace: r.Header.Get(api.HeaderTrace), start: start, end: time.Now()})
		}
	})
}

func (t *tracer) wrapProxy(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if p := api.CanonicalPath(r.URL.Path); traced(p) {
			t.record(span{layer: layerProxy, path: p, hit: w.Header().Get(proxy.HeaderCache) == "hit",
				trace: r.Header.Get(api.HeaderTrace), start: start, end: time.Now()})
		}
	})
}

func (t *tracer) wrapTransport(rt http.RoundTripper) http.RoundTripper {
	if t == nil {
		return rt
	}
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		start := time.Now()
		resp, err := rt.RoundTrip(r)
		if err != nil || !traced(api.CanonicalPath(r.URL.Path)) {
			return resp, err
		}
		resp.Body = &spanBody{body: resp.Body, t: t, s: span{layer: layerFwd, path: api.CanonicalPath(r.URL.Path), trace: r.Header.Get(api.HeaderTrace), start: start}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// spanBody ends a forwarding span when the proxy closes the body.
type spanBody struct {
	body io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) { return b.body.Read(p) }

func (b *spanBody) Close() error {
	b.once.Do(func() {
		b.s.end = time.Now()
		b.t.record(b.s)
	})
	return b.body.Close()
}

// union is the total length of the intervals' union.
func union(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var total time.Duration
	var curS, curE time.Time
	for i, s := range spans {
		if i == 0 || s.start.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s.start, s.end
		} else if s.end.After(curE) {
			curE = s.end
		}
	}
	return total + curE.Sub(curS)
}

// joined is the spans of one trace ID.
type joined struct {
	proxy  *span
	fwd    int // proxy→backend attempts: more than one when a read was hedged or failed over
	server []span
}

func joinSpans(spans []span) map[string]*joined {
	m := make(map[string]*joined)
	for i := range spans {
		s := &spans[i]
		j := m[s.trace]
		if j == nil {
			j = &joined{}
			m[s.trace] = j
		}
		switch s.layer {
		case layerProxy:
			j.proxy = s
		case layerFwd:
			j.fwd++
		case layerServer:
			j.server = append(j.server, *s)
		}
	}
	return m
}
