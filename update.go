package semprox

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/match"
)

// Live graph mutations. ApplyUpdate threads a batch of node/edge additions
// through every layer without repeating the offline pipeline: the graph
// grows copy-on-write (graph.Apply), each already-matched metagraph is
// re-matched ONLY on the neighborhood the delta touched
// (index.RematchDelta), the recomputed rows overlay the flat CSR indices
// (index.WithPatch), and the trained weight vectors are kept verbatim —
// the paper's w* weighs metagraph features, not nodes, so a graph delta
// changes the features, never the learned weights. The result is swapped
// in as the next epoch through the engine's atomic pointer: queries in
// flight finish on the old epoch, new queries see the new one, and no
// query ever observes a mix.

// Delta is a batch of node and edge additions (see graph.Delta): new nodes
// carry an already-registered type name and a value, and edges may
// reference both existing node ids and the ids of nodes added by the same
// delta.
type Delta = graph.Delta

// DeltaNode declares one node addition of a Delta.
type DeltaNode = graph.DeltaNode

// Edge is an undirected edge between two node ids.
type Edge = graph.Edge

// UpdateStats describes what one ApplyUpdate did.
type UpdateStats struct {
	// Epoch is the serving epoch after the swap.
	Epoch uint64
	// LSN is the log sequence number the update was applied at (see
	// ApplyUpdateAt); without a WAL it advances by one per update.
	LSN uint64
	// NodesAdded and EdgesAdded count the delta's genuinely new nodes and
	// edges (self loops, duplicates and already-present edges excluded).
	NodesAdded, EdgesAdded int
	// Touched counts the pre-existing nodes whose adjacency changed.
	Touched int
	// Rematched counts the matched metagraphs whose part indices were
	// incrementally re-matched and patched.
	Rematched int
	// Pending counts the structures awaiting background compaction after
	// the swap (see Engine.Compact).
	Pending int
}

// ApplyUpdate grows the graph by d and atomically swaps in the next
// serving epoch. Matched metagraphs are re-matched only inside the
// neighborhood the delta touched, trained classes keep their weights and
// have their merged indices patched row-for-row, and queries are answered
// without interruption throughout (readers never block on the writer
// lock). The updated engine answers every query exactly as an engine
// whose index was rebuilt from scratch on the post-delta graph would.
//
// The metagraph set itself is NOT re-mined: the paper's framework
// (Fig. 3) refreshes mining offline, and a delta cannot introduce new
// node types, so the mined patterns remain well-formed. On error (unknown
// type, out-of-range endpoint) the engine is unchanged.
//
// ApplyUpdate leaves the new epoch's overlays uncompacted; call Compact
// (typically from a background goroutine, as cmd/semproxd does) to fold
// them into flat storage.
func (e *Engine) ApplyUpdate(d Delta) (UpdateStats, error) {
	return e.applyUpdate(d, 0, 1)
}

// ApplyUpdateAt is ApplyUpdate with an explicit log sequence number: the
// next epoch records lsn as its durable position. Recovery and follower
// replicas re-apply logged records at their original LSNs through it, so
// the recovered (or replicated) engine ends at exactly the primary's
// position (a primary logs through ApplyUpdateLogged). lsn must exceed
// the engine's current LSN (records at or below it are already part of
// this engine's state; callers skip them).
func (e *Engine) ApplyUpdateAt(d Delta, lsn uint64) (UpdateStats, error) {
	if lsn == 0 {
		return UpdateStats{}, fmt.Errorf("semprox: ApplyUpdateAt: LSN must be positive")
	}
	return e.applyUpdate(d, lsn, 1)
}

// ApplyUpdateBatchAt applies d as the coalescing of `records` contiguous
// log records ending at lsn (i.e. records lsn-records+1 .. lsn), in one
// epoch swap. Because deltas are additive and new-node ids are assigned
// deterministically (n, n+1, ... off the graph the delta lands on),
// contiguous logged deltas coalesce by plain concatenation: the merged
// delta assigns every node the same id and adds the same edge set as
// applying the records one at a time would. The epoch counter advances
// by `records` — one per coalesced record — so the resulting engine is
// byte-identical (graph, indices, classes, epoch, LSN, snapshot bytes)
// to the one-at-a-time engine after compaction; this is what lets a
// catching-up follower drain a replication batch through a single apply
// without its serving state diverging from the primary's
// (property-tested by TestApplyUpdateBatchMatchesOneAtATime).
//
// The whole range must lie beyond the engine's current LSN; on error the
// engine is unchanged.
func (e *Engine) ApplyUpdateBatchAt(d Delta, lsn uint64, records int) (UpdateStats, error) {
	if records < 1 {
		return UpdateStats{}, fmt.Errorf("semprox: ApplyUpdateBatchAt: records must be >= 1, got %d", records)
	}
	if lsn < uint64(records) {
		return UpdateStats{}, fmt.Errorf("semprox: ApplyUpdateBatchAt: %d records cannot end at LSN %d", records, lsn)
	}
	return e.applyUpdate(d, lsn, records)
}

// ApplyUpdateLogged is the write path of a write-ahead-logged primary:
// validate, log, apply, in that order and as one step under the writer
// lock. d is validated first (graph.Apply, whose only failure is
// graph.ValidateApply's); a rejected delta returns its error with
// appendLog never called, so the log never holds a record the engine
// rejects. appendLog then sequences the accepted delta and returns the
// LSN it assigned; its error is returned as is, with nothing published.
// Re-matching and the epoch swap follow and cannot fail, so a caller
// whose appendLog only enqueues the record (wal.AppendAsync) overlaps
// the fsync with re-matching and gates its ack on durability
// separately.
//
// appendLog runs under the engine's writer lock, which is what makes
// log order equal apply order; it must not call back into the engine's
// writers. An assigned LSN at or below the engine's LSN means the log
// and engine were paired misaligned, a state ReplayWAL and the
// server's Promote refuse before writes are accepted, so it panics.
func (e *Engine) ApplyUpdateLogged(d Delta, appendLog func(Delta) (uint64, error)) (UpdateStats, error) {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.cur.Load()
	ng, touched, err := ep.g.Apply(d)
	if err != nil {
		return UpdateStats{}, err
	}
	lsn, err := appendLog(d)
	if err != nil {
		return UpdateStats{}, err
	}
	if lsn <= ep.lsn {
		panic(fmt.Sprintf("semprox: log assigned LSN %d at or below engine LSN %d: log and engine misaligned", lsn, ep.lsn))
	}
	return e.commit(start, ep, d, ng, touched, lsn, 1), nil
}

// applyUpdate builds and publishes the next epoch covering `records`
// coalesced log records (1 for a plain update); lsn == 0 means "no
// WAL": advance the epoch's LSN by one so the counter still tracks update
// count.
func (e *Engine) applyUpdate(d Delta, lsn uint64, records int) (UpdateStats, error) {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.cur.Load()
	if lsn == 0 {
		lsn = ep.lsn + 1
	} else if lsn-uint64(records)+1 <= ep.lsn {
		return UpdateStats{}, fmt.Errorf("semprox: records %d..%d not beyond engine LSN %d",
			lsn-uint64(records)+1, lsn, ep.lsn)
	}
	ng, touched, err := ep.g.Apply(d)
	if err != nil {
		return UpdateStats{}, err
	}
	return e.commit(start, ep, d, ng, touched, lsn, records), nil
}

// commit re-matches the neighborhood d touched on ng (ep's graph with d
// applied) and publishes the next epoch at lsn. It cannot fail. Caller
// holds e.mu.
func (e *Engine) commit(start time.Time, ep *epoch, d Delta, ng *graph.Graph, touched []graph.NodeID, lsn uint64, records int) UpdateStats {
	if records > 1 {
		// One Apply bumped the graph version once; a coalesced batch must
		// advance it once per record it covers, so the epoch counter stays
		// in lockstep with a replica that applied them one at a time.
		ng = ng.WithVersion(ep.g.Version() + uint64(records))
	}
	st := UpdateStats{
		Epoch:      ng.Version(),
		LSN:        lsn,
		NodesAdded: len(d.Nodes),
		EdgesAdded: ng.NumEdges() - ep.g.NumEdges(),
		Touched:    len(touched),
	}

	// New nodes with edges are just as "touched" as existing endpoints:
	// their adjacency is new, so they seed the re-match neighborhood too.
	seeds := touched
	for i := 0; i < len(d.Nodes); i++ {
		v := graph.NodeID(ep.g.NumNodes() + i)
		if ng.Degree(v) > 0 {
			seeds = append(seeds, v)
		}
	}

	metaIx := ep.metaIx
	patches := make(map[int]*index.Patch)
	if len(seeds) > 0 {
		cloned := false
		for i, part := range ep.metaIx {
			if part == nil {
				continue
			}
			p := index.RematchDelta(ng, e.ms[i], func(sub *graph.Graph) match.Matcher {
				return newMatcher(e.opts.Engine, sub)
			}, seeds)
			if e.opts.LogTransform {
				p = p.Transform(log1p)
			}
			if !cloned {
				metaIx = append([]*index.Index(nil), ep.metaIx...)
				cloned = true
			}
			metaIx[i] = part.WithPatch(p)
			patches[i] = p
			st.Rematched++
		}
	}

	classes := make(map[string]*classModel, len(ep.classes))
	for name, cm := range ep.classes {
		classes[name] = patchClass(cm, metaIx, patches)
	}

	nep := &epoch{g: ng, metaIx: metaIx, classes: classes, version: ng.Version(), lsn: lsn}
	e.publish(nep)
	st.Pending = nep.pending
	engApply.Since(start)
	engRematched.Observe(int64(st.Rematched))
	return st
}

// patchClass rebuilds one trained class for the next epoch: the weight
// vector and kept set carry over unchanged, and the merged class index is
// patched with the re-merged rows of every key some kept part re-matched.
// Row k of the merge is part kept[k] (each part spans one metagraph), so
// a merged replacement row is the concatenation of the patched parts'
// rows in kept order — exactly what a full index.Merge of the patched
// parts would produce for that key, at the cost of the touched rows only.
func patchClass(cm *classModel, metaIx []*index.Index, patches map[int]*index.Patch) *classModel {
	nodeKeys := make(map[graph.NodeID]bool)
	pairKeys := make(map[index.PairKey]bool)
	for _, mi := range cm.kept {
		p := patches[mi]
		if p == nil {
			continue
		}
		for _, k := range p.NodeKeys() {
			nodeKeys[k] = true
		}
		for _, k := range p.PairKeys() {
			pairKeys[k] = true
		}
	}
	if len(nodeKeys) == 0 && len(pairKeys) == 0 {
		return cm
	}
	mx := make(map[graph.NodeID][]index.Entry, len(nodeKeys))
	for x := range nodeKeys {
		var row []index.Entry
		for k, mi := range cm.kept {
			for _, en := range metaIx[mi].NodeVec(x) {
				row = append(row, index.Entry{Meta: int32(k), Count: en.Count})
			}
		}
		mx[x] = row
	}
	mxy := make(map[index.PairKey][]index.Entry, len(pairKeys))
	for pk := range pairKeys {
		x, y := pk.Nodes()
		var row []index.Entry
		for k, mi := range cm.kept {
			for _, en := range metaIx[mi].PairVec(x, y) {
				row = append(row, index.Entry{Meta: int32(k), Count: en.Count})
			}
		}
		mxy[pk] = row
	}
	patch := index.NewPatch(len(cm.kept), mx, mxy)
	return &classModel{kept: cm.kept, ix: cm.ix.WithPatch(patch), model: cm.model}
}

// Compact folds every copy-on-write overlay of the current epoch — the
// graph's touched rows and the patched indices — into fresh flat CSR
// storage and swaps the compacted epoch in. It is a no-op when nothing is
// pending. Queries keep serving throughout (results are identical before
// and after; compaction only restores the flat-storage read path), so it
// is safe — and intended — to run from a background goroutine after
// ApplyUpdate.
func (e *Engine) Compact() {
	e.mu.Lock()
	defer e.mu.Unlock()
	ep := e.cur.Load()
	if ep.pending == 0 {
		return
	}
	engCompactions.Inc()
	metaIx := make([]*index.Index, len(ep.metaIx))
	for i, ix := range ep.metaIx {
		if ix != nil {
			metaIx[i] = ix.Compact()
		}
	}
	classes := make(map[string]*classModel, len(ep.classes))
	for name, cm := range ep.classes {
		classes[name] = &classModel{kept: cm.kept, ix: cm.ix.Compact(), model: cm.model}
	}
	e.publish(&epoch{g: ep.g.Compact(), metaIx: metaIx, classes: classes, version: ep.version, lsn: ep.lsn})
}

// Stats is a consistent point-in-time snapshot of the serving state.
type Stats struct {
	// Epoch is the serving epoch counter (one per applied update).
	Epoch uint64
	// LSN is the durable log position of the serving epoch (see
	// Engine.LSN).
	LSN uint64
	// Nodes, Edges and Types describe the serving graph.
	Nodes, Edges, Types int
	// Metagraphs is |M|; Matched counts the metagraphs matched so far.
	Metagraphs, Matched int
	// PendingCompaction counts the structures (graph + indices) still
	// carrying update overlays that Compact would fold away.
	PendingCompaction int
	// Classes lists the trained class names, sorted.
	Classes []string
}

// Stats reports the current epoch's serving state. Safe for concurrent
// use; all fields describe ONE epoch.
func (e *Engine) Stats() Stats {
	ep := e.cur.Load()
	matched := 0
	for _, ix := range ep.metaIx {
		if ix != nil {
			matched++
		}
	}
	classes := make([]string, 0, len(ep.classes))
	for c := range ep.classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	return Stats{
		Epoch:             ep.version,
		LSN:               ep.lsn,
		Nodes:             ep.g.NumNodes(),
		Edges:             ep.g.NumEdges(),
		Types:             ep.g.NumTypes(),
		Metagraphs:        len(e.ms),
		Matched:           matched,
		PendingCompaction: ep.pending,
		Classes:           classes,
	}
}
