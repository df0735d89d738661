package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/api"
)

// opPaths are the canonical endpoints loadgen operations land on (batch
// queries POST to the query path); the server-side cross-check counts
// exactly these, so probe (readyz), stats-poll, and replication traffic
// never pollute the comparison.
var opPaths = []string{api.PathQuery, api.PathProximity, api.PathUpdate}

// scrapeOpsServed sums semprox_http_requests_total over the operation
// endpoints (all status classes) across every /metrics base of the tier
// the router fires at. Called before and after a measured leg; the delta
// is the server-observed request count the client-observed Sent must
// match in an error-free window.
func (t *target) scrapeOpsServed(ctx context.Context) (uint64, error) {
	hc := t.hc
	if hc == nil {
		hc = http.DefaultClient
	}
	var total uint64
	for _, base := range t.metricsURLs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+api.MetricsPath, nil)
		if err != nil {
			return 0, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return 0, fmt.Errorf("scraping %s/metrics: %w", base, err)
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("scraping %s/metrics: %w", base, err)
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("scraping %s/metrics: status %d", base, resp.StatusCode)
		}
		n, err := sumOpRequests(string(body))
		if err != nil {
			return 0, fmt.Errorf("scraping %s/metrics: %w", base, err)
		}
		total += n
	}
	return total, nil
}

// sumOpRequests totals the request-counter samples for the operation
// endpoints in one Prometheus text exposition.
func sumOpRequests(expo string) (uint64, error) {
	var total uint64
	for _, line := range strings.Split(expo, "\n") {
		if !strings.HasPrefix(line, "semprox_http_requests_total{") {
			continue
		}
		onOpPath := false
		for _, p := range opPaths {
			onOpPath = onOpPath || strings.Contains(line, `path="`+p+`"`)
		}
		if !onOpPath {
			continue
		}
		_, val, ok := strings.Cut(line, "} ")
		if !ok {
			return 0, fmt.Errorf("malformed sample %q", line)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed sample %q: %w", line, err)
		}
		total += n
	}
	return total, nil
}
