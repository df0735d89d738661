package semprox

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/index"
)

// rebuildFromScratch builds a reference engine on the final graph: same
// metagraph set, same trained weights (the paper's w* weighs metagraph
// features, so a graph delta does not retrain), but every matched part
// re-matched from scratch on the compacted final graph and every class
// index re-merged in full. ApplyUpdate must be indistinguishable from it.
func rebuildFromScratch(t testing.TB, e *Engine) *Engine {
	t.Helper()
	ep := e.cur.Load()
	e2 := &Engine{anchor: e.anchor, opts: e.opts, ms: e.ms}
	nep := &epoch{
		g:       ep.g.Compact(),
		metaIx:  make([]*index.Index, len(e.ms)),
		classes: make(map[string]*classModel, len(ep.classes)),
		version: ep.version,
	}
	e2.cur.Store(nep)
	matched := make([]int, 0, len(e.ms))
	for i, ix := range ep.metaIx {
		if ix != nil {
			matched = append(matched, i)
		}
	}
	nep.metaIx = e2.matchMissing(nep, nep.metaIx, matched)
	for name, cm := range ep.classes {
		nep.classes[name] = &classModel{kept: cm.kept, ix: mergeFor(nep.metaIx, cm.kept), model: cm.model}
	}
	return e2
}

// randomToyDelta grows the toy graph with users, attributes and edges.
func randomToyDelta(rng *rand.Rand, numNodes int, tag string) Delta {
	var d Delta
	types := []string{"user", "school", "hobby", "employer"}
	for i := rng.Intn(3); i > 0; i-- {
		d.Nodes = append(d.Nodes, DeltaNode{
			Type:  types[rng.Intn(len(types))],
			Value: fmt.Sprintf("%s-%d", tag, i),
		})
	}
	total := numNodes + len(d.Nodes)
	for i := 1 + rng.Intn(6); i > 0; i-- {
		d.Edges = append(d.Edges, Edge{U: NodeID(rng.Intn(total)), V: NodeID(rng.Intn(total))})
	}
	return d
}

// assertEngineEquivalent checks that two engines answer every query,
// proximity and weight read byte-identically, across worker counts.
func assertEngineEquivalent(t *testing.T, got, want *Engine, tag string) {
	t.Helper()
	g := want.Graph()
	if gotG := got.Graph(); gotG.NumNodes() != g.NumNodes() || gotG.NumEdges() != g.NumEdges() {
		t.Fatalf("%s: graph %v vs %v", tag, gotG, g)
	}
	classes := want.Classes()
	if !reflect.DeepEqual(got.Classes(), classes) {
		t.Fatalf("%s: classes %v vs %v", tag, got.Classes(), classes)
	}
	users := g.NodesOfType(g.Types().ID("user"))
	for _, class := range classes {
		if !reflect.DeepEqual(got.Weights(class), want.Weights(class)) {
			t.Fatalf("%s: weights of %q differ", tag, class)
		}
		for _, workers := range []int{1, 3, 8} {
			got.SetWorkers(workers)
			want.SetWorkers(workers)
			for _, q := range users {
				for _, k := range []int{0, 3} {
					a, errA := got.Query(class, q, k)
					b, errB := want.Query(class, q, k)
					if (errA != nil) != (errB != nil) {
						t.Fatalf("%s: query error mismatch: %v vs %v", tag, errA, errB)
					}
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("%s: class %q workers=%d k=%d query %d:\n got %v\nwant %v",
							tag, class, workers, k, q, a, b)
					}
				}
			}
		}
		for _, x := range users {
			for _, y := range users {
				a, _ := got.Proximity(class, x, y)
				b, _ := want.Proximity(class, x, y)
				if a != b {
					t.Fatalf("%s: proximity(%d,%d) = %v, want %v", tag, x, y, a, b)
				}
			}
		}
	}
}

// TestApplyUpdateEqualsScratch is the tentpole property: for random delta
// sequences, the incrementally updated engine is byte-identical — every
// query, every proximity, every weight vector, every worker count — to an
// engine rebuilt from scratch on the final graph, both before and after
// compaction, for full and dual-stage trained classes alike.
func TestApplyUpdateEqualsScratch(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		eng, g := toyEngine(t)
		eng.Train("classmate", classmateExamples(g))
		if trial%2 == 0 {
			eng.TrainDualStage("classmate2", classmateExamples(g), 2)
		}
		for step := 0; step < 3; step++ {
			d := randomToyDelta(rng, eng.Graph().NumNodes(), fmt.Sprintf("t%d-s%d", trial, step))
			st, err := eng.ApplyUpdate(d)
			if err != nil {
				t.Fatal(err)
			}
			if st.Epoch != uint64(step+1) {
				t.Fatalf("epoch = %d, want %d", st.Epoch, step+1)
			}
			if eng.Epoch() != st.Epoch {
				t.Fatalf("Epoch() = %d, want %d", eng.Epoch(), st.Epoch)
			}
		}
		scratch := rebuildFromScratch(t, eng)
		assertEngineEquivalent(t, eng, scratch, fmt.Sprintf("trial %d (patched)", trial))
		if eng.Stats().PendingCompaction == 0 {
			t.Fatal("expected pending compaction after updates")
		}
		eng.Compact()
		if p := eng.Stats().PendingCompaction; p != 0 {
			t.Fatalf("pending after Compact = %d", p)
		}
		assertEngineEquivalent(t, eng, scratch, fmt.Sprintf("trial %d (compacted)", trial))
	}
}

// TestApplyUpdateLogTransform covers the transformed-count path: patched
// rows must be transformed exactly like built rows.
func TestApplyUpdateLogTransform(t *testing.T) {
	g := fixtures.Toy()
	opts := DefaultOptions()
	opts.Mining.MaxNodes, opts.Mining.MinSupport = 4, 1
	opts.Train.Restarts, opts.Train.MaxIters = 1, 50
	opts.LogTransform = true
	eng, err := NewEngine(g, "user", opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.Train("classmate", classmateExamples(g))
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 2; step++ {
		if _, err := eng.ApplyUpdate(randomToyDelta(rng, eng.Graph().NumNodes(), fmt.Sprintf("lt-%d", step))); err != nil {
			t.Fatal(err)
		}
	}
	assertEngineEquivalent(t, eng, rebuildFromScratch(t, eng), "log-transform")
}

// TestApplyUpdateUntrained exercises the graph-only swap: no matched
// metagraphs, nothing to re-match, the epoch still advances and training
// afterwards sees the updated graph.
func TestApplyUpdateUntrained(t *testing.T) {
	eng, g := toyEngine(t)
	st, err := eng.ApplyUpdate(Delta{
		Nodes: []DeltaNode{{Type: "user", Value: "Zoe"}},
		Edges: []Edge{{U: NodeID(g.NumNodes()), V: g.NodeByName("College A")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rematched != 0 || st.NodesAdded != 1 || st.EdgesAdded != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if eng.Graph().NodeByName("Zoe") == InvalidNode {
		t.Fatal("new node not visible")
	}
	eng.Train("classmate", classmateExamples(g))
	if _, err := eng.Query("classmate", eng.Graph().NodeByName("Zoe"), 3); err != nil {
		t.Fatal(err)
	}
}

// TestApplyUpdateErrors verifies rejected deltas leave the engine
// untouched.
func TestApplyUpdateErrors(t *testing.T) {
	eng, _ := toyEngine(t)
	before := eng.Stats()
	if _, err := eng.ApplyUpdate(Delta{Nodes: []DeltaNode{{Type: "alien", Value: "x"}}}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := eng.ApplyUpdate(Delta{Edges: []Edge{{U: 0, V: 10_000}}}); err == nil {
		t.Fatal("dangling edge accepted")
	}
	if after := eng.Stats(); !reflect.DeepEqual(before, after) {
		t.Fatalf("failed update changed state: %+v vs %+v", before, after)
	}
}

// TestApplyUpdateLoggedValidatesBeforeLogging: a delta the engine
// rejects never reaches the log, and a failing log append publishes
// nothing — either way epoch, LSN and snapshot bytes stay put. An
// accepted delta applies at the LSN the log assigned, and an LSN at or
// below the engine's is an invariant violation.
func TestApplyUpdateLoggedValidatesBeforeLogging(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	save := func() []byte {
		var b bytes.Buffer
		if err := eng.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	before := save()
	logFails := fmt.Errorf("disk on fire")
	for _, tc := range []struct {
		name       string
		d          Delta
		appendErr  error
		wantLogged bool
	}{
		{"unknown type", Delta{Nodes: []DeltaNode{{Type: "alien", Value: "x"}}}, nil, false},
		{"out-of-range edge", Delta{Edges: []Edge{{U: 0, V: 10_000}}}, nil, false},
		{"failing append", Delta{Nodes: []DeltaNode{{Type: "user", Value: "Zoe"}}}, logFails, true},
	} {
		logged := false
		_, err := eng.ApplyUpdateLogged(tc.d, func(Delta) (uint64, error) {
			logged = true
			return 1, tc.appendErr
		})
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if tc.appendErr != nil && err != tc.appendErr {
			t.Fatalf("%s: err = %v, want the append error as is", tc.name, err)
		}
		if logged != tc.wantLogged {
			t.Fatalf("%s: appendLog called = %v, want %v", tc.name, logged, tc.wantLogged)
		}
		if eng.Epoch() != 0 || eng.LSN() != 0 || !bytes.Equal(save(), before) {
			t.Fatalf("%s: rejected update changed the engine (epoch %d, LSN %d)", tc.name, eng.Epoch(), eng.LSN())
		}
	}

	d := Delta{Nodes: []DeltaNode{{Type: "user", Value: "Zoe"}}}
	st, err := eng.ApplyUpdateLogged(d, func(Delta) (uint64, error) { return 7, nil })
	if err != nil || st.LSN != 7 || eng.LSN() != 7 || eng.Epoch() != 1 {
		t.Fatalf("accepted update: stats %+v, err %v, engine LSN %d epoch %d", st, err, eng.LSN(), eng.Epoch())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an LSN at or below the engine's did not panic")
		}
	}()
	eng.ApplyUpdateLogged(d, func(Delta) (uint64, error) { return 7, nil }) //nolint:errcheck // panics
}

// TestQueriesServeDuringUpdate hammers Query/QueryBatch/Proximity from
// many goroutines while updates and compactions swap epochs underneath.
// Every observed ranking must equal the pre-update or the post-update
// reference — an epoch is atomic, a mix of the two is a bug. Run with
// -race (make test) this also proves the swap is data-race free.
func TestQueriesServeDuringUpdate(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	probes := g.NodesOfType(g.Types().ID("user"))

	refOld := make(map[NodeID][]Ranked, len(probes))
	for _, q := range probes {
		r, err := eng.Query("classmate", q, 5)
		if err != nil {
			t.Fatal(err)
		}
		refOld[q] = r
	}

	const queriers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	observed := make([]map[NodeID][][]Ranked, queriers)
	for w := 0; w < queriers; w++ {
		observed[w] = make(map[NodeID][][]Ranked)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := probes[i%len(probes)]
				r, err := eng.Query("classmate", q, 5)
				if err != nil {
					t.Error(err)
					return
				}
				observed[w][q] = append(observed[w][q], r)
				if batch, err := eng.QueryBatch("classmate", probes, 5); err != nil || len(batch) != len(probes) {
					t.Errorf("batch: %v (%d results)", err, len(batch))
					return
				}
				if _, err := eng.Proximity("classmate", probes[0], q); err != nil {
					t.Error(err)
					return
				}
				_ = eng.Stats()
			}
		}(w)
	}

	d := Delta{
		Nodes: []DeltaNode{{Type: "user", Value: "Zoe"}, {Type: "school", Value: "College Z"}},
		Edges: []Edge{
			{U: NodeID(g.NumNodes()), V: NodeID(g.NumNodes() + 1)},
			{U: g.NodeByName("Kate"), V: NodeID(g.NumNodes() + 1)},
			{U: g.NodeByName("Alice"), V: g.NodeByName("College B")},
		},
	}
	if _, err := eng.ApplyUpdate(d); err != nil {
		t.Fatal(err)
	}
	eng.Compact()
	close(stop)
	wg.Wait()

	refNew := make(map[NodeID][]Ranked, len(probes))
	for _, q := range probes {
		r, err := eng.Query("classmate", q, 5)
		if err != nil {
			t.Fatal(err)
		}
		refNew[q] = r
	}
	for w := range observed {
		for q, results := range observed[w] {
			for _, r := range results {
				if !reflect.DeepEqual(r, refOld[q]) && !reflect.DeepEqual(r, refNew[q]) {
					t.Fatalf("query %d observed a ranking matching neither epoch:\n got %v\n old %v\n new %v",
						q, r, refOld[q], refNew[q])
				}
			}
		}
	}
}

// TestSnapshotRoundTripAfterUpdates: a mutated engine must round-trip
// through Save/LoadEngine — same epoch, same answers, nothing pending.
func TestSnapshotRoundTripAfterUpdates(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 2; step++ {
		if _, err := eng.ApplyUpdate(randomToyDelta(rng, eng.Graph().NumNodes(), fmt.Sprintf("rt-%d", step))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch() != eng.Epoch() {
		t.Fatalf("loaded epoch %d, want %d", loaded.Epoch(), eng.Epoch())
	}
	if p := loaded.Stats().PendingCompaction; p != 0 {
		t.Fatalf("loaded engine pending = %d", p)
	}

	// Saving twice yields identical bytes (epoch included). Checked before
	// assertEngineEquivalent, which retunes Options.Workers — a field the
	// snapshot intentionally carries.
	var buf2 bytes.Buffer
	if err := eng.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot bytes not deterministic")
	}
	assertEngineEquivalent(t, loaded, eng, "snapshot round-trip")
}

// QueryBatch edge cases: empty batch, untrained class, more workers than
// queries, and the k <= 0 "full ranking" convention.
func TestQueryBatchEdgeCases(t *testing.T) {
	eng, g := toyEngine(t)

	if _, err := eng.QueryBatch("classmate", []NodeID{0}, 5); err == nil {
		t.Fatal("untrained class must error")
	}
	eng.Train("classmate", classmateExamples(g))

	out, err := eng.QueryBatch("classmate", nil, 5)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(out))
	}

	// More workers than queries: the fan-out clamps to len(qs) and the
	// results still align with qs and match single queries.
	eng.SetWorkers(16)
	qs := []NodeID{g.NodeByName("Kate"), g.NodeByName("Bob")}
	out, err = eng.QueryBatch("classmate", qs, 3)
	if err != nil || len(out) != len(qs) {
		t.Fatalf("clamped batch: %v, %d results", err, len(out))
	}
	for i, q := range qs {
		want, _ := eng.Query("classmate", q, 3)
		if !reflect.DeepEqual(out[i], want) {
			t.Fatalf("batch[%d] = %v, want %v", i, out[i], want)
		}
	}

	// k <= 0 returns every candidate, like Query.
	for _, k := range []int{0, -1} {
		out, err = eng.QueryBatch("classmate", qs, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want, _ := eng.Query("classmate", q, 0)
			if !reflect.DeepEqual(out[i], want) {
				t.Fatalf("k=%d batch[%d] mismatch", k, i)
			}
		}
	}
}

// TestApplyUpdateBatchMatchesOneAtATime is the coalesced-apply property
// behind the follower's batched catch-up: a contiguous run of logged
// deltas applied as ONE ApplyUpdateBatchAt call (concatenated delta,
// epoch advanced once per covered record) must leave the engine
// byte-identical — snapshot bytes, epoch, LSN, every query at every
// worker count — to applying the records one ApplyUpdateAt at a time.
func TestApplyUpdateBatchMatchesOneAtATime(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		base, g := toyEngine(t)
		base.Train("classmate", classmateExamples(g))
		var seed bytes.Buffer
		if err := base.Save(&seed); err != nil {
			t.Fatal(err)
		}
		oneAtATime, err := LoadEngine(bytes.NewReader(seed.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		coalesced, err := LoadEngine(bytes.NewReader(seed.Bytes()))
		if err != nil {
			t.Fatal(err)
		}

		// A random record stream, chunked at random points: each chunk is
		// applied record-by-record on one engine and as a single coalesced
		// batch on the other.
		lsn := uint64(0)
		for chunk := 0; chunk < 3; chunk++ {
			records := 1 + rng.Intn(4)
			var merged Delta
			nodes := oneAtATime.Graph().NumNodes()
			for r := 0; r < records; r++ {
				d := randomToyDelta(rng, nodes, fmt.Sprintf("b%d-c%d-r%d", trial, chunk, r))
				lsn++
				if _, err := oneAtATime.ApplyUpdateAt(d, lsn); err != nil {
					t.Fatal(err)
				}
				merged.Nodes = append(merged.Nodes, d.Nodes...)
				merged.Edges = append(merged.Edges, d.Edges...)
				nodes += len(d.Nodes)
			}
			if _, err := coalesced.ApplyUpdateBatchAt(merged, lsn, records); err != nil {
				t.Fatal(err)
			}
		}

		if coalesced.Epoch() != oneAtATime.Epoch() || coalesced.LSN() != oneAtATime.LSN() {
			t.Fatalf("coalesced at epoch %d LSN %d, one-at-a-time at epoch %d LSN %d",
				coalesced.Epoch(), coalesced.LSN(), oneAtATime.Epoch(), oneAtATime.LSN())
		}
		assertEngineEquivalent(t, coalesced, oneAtATime, fmt.Sprintf("trial %d (patched)", trial))
		oneAtATime.Compact()
		coalesced.Compact()
		var a, b bytes.Buffer
		if err := oneAtATime.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := coalesced.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("trial %d: coalesced snapshot differs from one-at-a-time snapshot", trial)
		}
	}
}

// TestApplyUpdateBatchValidation pins the argument contract: a batch
// must cover at least one record, the whole covered range must lie
// beyond the engine's LSN, and a failed batch leaves the engine
// unchanged.
func TestApplyUpdateBatchValidation(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	d := Delta{Nodes: []DeltaNode{{Type: "user", Value: "bv-1"}}}
	if _, err := eng.ApplyUpdateBatchAt(d, 1, 0); err == nil {
		t.Fatal("records=0 accepted")
	}
	if _, err := eng.ApplyUpdateBatchAt(d, 1, 2); err == nil {
		t.Fatal("2 records ending at LSN 1 accepted")
	}
	if _, err := eng.ApplyUpdateBatchAt(d, 2, 2); err != nil {
		t.Fatalf("records 1..2: %v", err)
	}
	if eng.LSN() != 2 || eng.Epoch() != 2 {
		t.Fatalf("LSN %d epoch %d, want 2/2", eng.LSN(), eng.Epoch())
	}
	// Range overlapping the applied prefix: records 2..3 collide with the
	// engine's LSN 2.
	if _, err := eng.ApplyUpdateBatchAt(d, 3, 2); err == nil {
		t.Fatal("overlapping batch accepted")
	}
	if eng.LSN() != 2 || eng.Epoch() != 2 {
		t.Fatalf("failed batch mutated the engine: LSN %d epoch %d", eng.LSN(), eng.Epoch())
	}
}
