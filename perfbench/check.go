package main

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"time"

	semprox "repro"
	"repro/api"
	"repro/client"
)

// reference holds the serial answers of one pinned View of the
// primary's engine to every read a workload can send; every response of
// a read-only workload must equal it element for element, at the same
// epoch. It is computed before traffic starts, so checking a response
// costs a comparison and no engine work.
type reference struct {
	epoch uint64
	names []string
	rank  [][]api.RankedResult // by anchor index
	prox  []float64            // by a*len(names)+b; only when the mix has proximity reads
}

func newReference(st *stack) (*reference, error) {
	v := st.eng.View()
	g := v.Graph()
	w := st.w
	r := &reference{epoch: v.Epoch(), names: st.names}
	ids := make([]semprox.NodeID, len(st.names))
	for i, name := range st.names {
		ids[i] = g.NodeByName(name)
		ranked, err := v.Query(w.class, ids[i], w.k)
		if err != nil {
			return nil, err
		}
		res := make([]api.RankedResult, len(ranked))
		for j, x := range ranked {
			res[j] = api.RankedResult{Node: int32(x.Node), Name: g.Name(x.Node), Score: x.Score}
		}
		r.rank = append(r.rank, res)
	}
	if w.mix[opProximity] > 0 {
		r.prox = make([]float64, len(ids)*len(ids))
		for a, x := range ids {
			for b, y := range ids {
				p, err := v.Proximity(w.class, x, y)
				if err != nil {
					return nil, err
				}
				r.prox[a*len(ids)+b] = p
			}
		}
	}
	return r, nil
}

func (r *reference) checkEpoch(epoch uint64) error {
	if epoch != r.epoch {
		return fmt.Errorf("answered at epoch %d, reference is at %d", epoch, r.epoch)
	}
	return nil
}

func (r *reference) checkQuery(epoch uint64, anchors []int32, resp api.QueryResponse) error {
	if err := r.checkEpoch(epoch); err != nil {
		return err
	}
	if len(resp.Results) != len(anchors) {
		return fmt.Errorf("%d results for %d queries", len(resp.Results), len(anchors))
	}
	for i, a := range anchors {
		got := resp.Results[i]
		if got.Query != r.names[a] || !reflect.DeepEqual(got.Results, r.rank[a]) {
			return fmt.Errorf("query %q: answer differs from the engine's", r.names[a])
		}
	}
	return nil
}

func (r *reference) checkProximity(epoch uint64, a, b int32, resp api.ProximityResponse) error {
	if err := r.checkEpoch(epoch); err != nil {
		return err
	}
	want := r.prox[int(a)*len(r.names)+int(b)]
	if resp.Proximity != want || resp.X != r.names[a] || resp.Y != r.names[b] {
		return fmt.Errorf("proximity(%q, %q) = %v, engine says %v", r.names[a], r.names[b], resp.Proximity, want)
	}
	return nil
}

// checkConverged is the end state of a writing workload: all three
// replicas at one LSN and epoch, every acknowledged node present on each,
// and a fixed probe set answering identically through the proxy (second
// ask: from its cache) and fresh from every backend. It returns the
// number of probe checks made and the first failure.
func checkConverged(ctx context.Context, st *stack, acked []string) (int, error) {
	want := st.eng.LSN()
	deadline := time.Now().Add(20 * time.Second)
	for _, f := range st.followers {
		for f.Engine().LSN() != want {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("follower stuck at LSN %d, primary at %d", f.Engine().LSN(), want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	engines := []*semprox.Engine{st.eng}
	for _, f := range st.followers {
		engines = append(engines, f.Engine())
	}
	for i, e := range engines {
		if e.Epoch() != st.eng.Epoch() || e.LSN() != want {
			return 0, fmt.Errorf("replica %d at epoch %d LSN %d, primary at epoch %d LSN %d", i, e.Epoch(), e.LSN(), st.eng.Epoch(), want)
		}
		g := e.Graph()
		for _, name := range acked {
			if g.NodeByName(name) == semprox.InvalidNode {
				return 0, fmt.Errorf("acked node %q missing on replica %d", name, i)
			}
		}
	}

	probes := append([]string(nil), st.names[:20]...)
	for i := 0; i < len(acked) && i < 100; i += 10 {
		probes = append(probes, acked[i])
	}
	hc := &http.Client{Timeout: client.DefaultTimeout}
	edge := client.New(st.proxyURL, hc)
	backs := []*client.Client{client.New(st.primaryURL, hc)}
	for _, u := range st.followerURLs {
		backs = append(backs, client.New(u, hc))
	}
	checks := 0
	for _, q := range probes {
		var first api.QueryResponse
		for ask := 0; ask < 2; ask++ {
			resp, err := edge.Query(ctx, st.w.class, q, st.w.k)
			if err != nil {
				return checks, fmt.Errorf("probe %q through the proxy: %w", q, err)
			}
			if ask == 0 {
				first = resp
			} else if !reflect.DeepEqual(resp, first) {
				return checks, fmt.Errorf("probe %q: cached answer differs from the proxy's first", q)
			}
			checks++
		}
		for i, b := range backs {
			resp, err := b.Query(ctx, st.w.class, q, st.w.k)
			if err != nil {
				return checks, fmt.Errorf("probe %q on backend %d: %w", q, i, err)
			}
			if !reflect.DeepEqual(resp, first) {
				return checks, fmt.Errorf("probe %q: backend %d differs from the proxy", q, i)
			}
			checks++
		}
	}
	return checks, nil
}
