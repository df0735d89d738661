package main

import (
	"context"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/api"
	"repro/client"
)

// series is one /metrics scrape: every sample line keyed by its name and
// label set exactly as exposed, e.g. `semprox_wal_fsync_seconds{quantile="0.99"}`.
type series map[string]float64

// scrape fetches and parses a tier's /metrics exposition.
func scrape(ctx context.Context, c *client.Client) (series, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := make(series)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// readOps sums the request counter over the endpoints the benchmark
// drives (query, proximity, update), every status class.
func (s series) readOps() float64 {
	var n float64
	for k, v := range s {
		if !strings.HasPrefix(k, "semprox_http_requests_total{") {
			continue
		}
		for _, p := range []string{api.PathQuery, api.PathProximity, api.PathUpdate} {
			if strings.Contains(k, `path="`+p+`"`) {
				n += v
			}
		}
	}
	return n
}

// servedOps polls the proxy's request counter until it reaches want
// (a response reaches the caller a moment before the server counts it)
// or a second passes, and returns the last count seen.
func servedOps(ctx context.Context, c *client.Client, want float64) float64 {
	var got float64
	deadline := time.Now().Add(time.Second)
	for {
		s, err := scrape(ctx, c)
		if err == nil {
			got = s.readOps()
		}
		if got == want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// quantile is the nearest-rank q-quantile of sorted xs (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// midMean is the mean of the middle half of xs (the interquartile mean).
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}

// median of unsorted xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
