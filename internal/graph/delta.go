package graph

import (
	"fmt"
	"sort"
)

// Live mutations. A Graph stays immutable — applying a Delta never touches
// the receiver; it produces a NEW graph value one version later that shares
// every untouched adjacency row with its parent (copy-on-write). Rows whose
// neighbor list changed, plus all freshly added nodes, live in a small
// per-version overlay consulted before the flat CSR arrays; Compact folds
// the overlay back into fresh flat arrays identical to what Builder.Build
// would have produced on the final node/edge set.
//
// Deltas are additive: nodes and edges can be added, never removed. That
// matches the serving scenario (the object graph only grows while queries
// are in flight) and is what makes incremental index maintenance exact —
// existing metagraph instances are never destroyed, so per-key counts only
// need recomputing inside the neighborhood a delta touched.

// DeltaNode declares one node addition: a type name (which must already be
// registered in the graph — a delta cannot invent types) and an intrinsic
// value.
type DeltaNode struct {
	Type  string
	Value string
}

// Delta is a batch of node and edge additions. New nodes receive the ids
// n, n+1, ... (n = NumNodes of the graph the delta is applied to) in slice
// order, and Edges may reference both existing and new ids. Self loops and
// edges already present are ignored, exactly as Builder.Build ignores them.
type Delta struct {
	Nodes []DeltaNode
	Edges []Edge
}

// Empty reports whether the delta adds nothing.
func (d *Delta) Empty() bool { return len(d.Nodes) == 0 && len(d.Edges) == 0 }

// ovlRow is the copy-on-write adjacency row of one touched or new node:
// the same (type, id)-sorted neighbor list and typed sub-range table the
// flat CSR keeps, just owned by a single version.
type ovlRow struct {
	nbr     []NodeID
	typeOff []int32 // len numTypes+1; nbr[typeOff[t]:typeOff[t+1]] has type t
}

// Version returns the graph's version counter: 0 for a freshly built
// graph, parent+1 for every Apply. Snapshots restore it via WithVersion.
func (g *Graph) Version() uint64 { return g.version }

// WithVersion returns a shallow copy of g carrying the given version. All
// storage is shared; use it to re-anchor the counter of a graph
// deserialized from a format that does not carry one.
func (g *Graph) WithVersion(v uint64) *Graph {
	ng := *g
	ng.version = v
	return &ng
}

// Overlaid reports whether g carries copy-on-write rows that Compact would
// fold into flat CSR storage.
func (g *Graph) Overlaid() bool { return g.ovl != nil }

// ValidateApply reports whether d would be accepted by Apply on a graph
// holding numNodes nodes under the given type registry — exactly Apply's
// rejection conditions (unknown type name, out-of-range edge endpoint),
// factored out as THE definition of delta acceptability. Apply itself
// validates through it, so a primary (which applies before it logs)
// never logs a delta it fails, and a follower checks each replicated
// record with it at the record's own position in a coalesced batch:
// a record no primary would have logged fails there too, and sharing
// the predicate makes that structural — a future extra rejection
// condition added here is automatically enforced on both sides.
func ValidateApply(types *TypeRegistry, numNodes int, d Delta) error {
	newN := numNodes + len(d.Nodes)
	for i, n := range d.Nodes {
		if types.ID(n.Type) == InvalidType {
			return fmt.Errorf("graph: delta node %d has unknown type %q", i, n.Type)
		}
	}
	for _, e := range d.Edges {
		if e.U < 0 || int(e.U) >= newN || e.V < 0 || int(e.V) >= newN {
			return fmt.Errorf("graph: delta edge (%d,%d) references missing node (have %d)", e.U, e.V, newN)
		}
	}
	return nil
}

// Apply returns a new graph one version later with the delta's nodes and
// edges added, plus the sorted set of existing-row nodes whose adjacency
// actually changed (endpoints of genuinely new edges — the seeds for
// incremental re-matching). The receiver is not modified and all untouched
// adjacency storage is shared.
//
// Apply fails if a node names an unregistered type or an edge endpoint is
// out of range (see ValidateApply); on failure the receiver is unchanged
// and no partial state escapes.
func (g *Graph) Apply(d Delta) (*Graph, []NodeID, error) {
	oldN := g.NumNodes()
	newN := oldN + len(d.Nodes)
	if err := ValidateApply(g.types, oldN, d); err != nil {
		return nil, nil, err
	}
	newTypes := make([]TypeID, 0, len(d.Nodes))
	for _, n := range d.Nodes {
		newTypes = append(newTypes, g.types.ID(n.Type))
	}

	// Keep only genuinely new edges: no self loops, no duplicates within
	// the delta, nothing already present — the same normalization
	// Builder.Build applies, so an incrementally grown graph compacts to
	// exactly the graph a from-scratch build of the final edge set yields.
	seen := make(map[[2]NodeID]struct{}, len(d.Edges))
	added := make([]Edge, 0, len(d.Edges))
	for _, e := range d.Edges {
		u, v := e.U, e.V
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]NodeID{u, v}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		if int(v) < oldN && g.HasEdge(u, v) {
			continue
		}
		added = append(added, Edge{u, v})
	}

	ng := &Graph{
		types:    g.types,
		nodeType: g.nodeType,
		nodeName: g.nodeName,
		off:      g.off,
		nbr:      g.nbr,
		typeOff:  g.typeOff,
		byType:   g.byType,
		numEdges: g.numEdges + len(added),
		version:  g.version + 1,
		ovl:      g.ovl, // replaced below unless the delta is a no-op
	}
	if len(d.Nodes) > 0 {
		ng.nodeType = append(append(make([]TypeID, 0, newN), g.nodeType...), newTypes...)
		names := append(make([]string, 0, newN), g.nodeName...)
		for _, n := range d.Nodes {
			names = append(names, n.Value)
		}
		ng.nodeName = names
		// byType rows gaining nodes are copied ONCE, pre-sized for every
		// addition; the rest stay shared. New ids exceed all old ids, so
		// appending keeps rows ascending.
		gain := make(map[TypeID]int, len(newTypes))
		for _, t := range newTypes {
			gain[t]++
		}
		ng.byType = append([][]NodeID(nil), g.byType...)
		for t, n := range gain {
			row := make([]NodeID, len(g.byType[t]), len(g.byType[t])+n)
			copy(row, g.byType[t])
			ng.byType[t] = row
		}
		for i, t := range newTypes {
			ng.byType[t] = append(ng.byType[t], NodeID(oldN+i))
		}
	}

	// Collect the new neighbors of every touched row. A delta that turned
	// out to be a complete no-op (every edge already present) keeps the
	// parent's overlay as is — no fresh copy-on-write state, nothing new
	// to compact.
	extra := make(map[NodeID][]NodeID, 2*len(added))
	for _, e := range added {
		extra[e.U] = append(extra[e.U], e.V)
		extra[e.V] = append(extra[e.V], e.U)
	}
	if len(extra) == 0 && len(d.Nodes) == 0 {
		return ng, nil, nil
	}
	touched := make([]NodeID, 0, len(extra))
	ng.ovl = make(map[NodeID]*ovlRow, len(extra)+len(d.Nodes))
	// Share untouched overlay rows of an already-overlaid parent.
	for v, r := range g.ovl {
		ng.ovl[v] = r
	}
	for i := 0; i < len(d.Nodes); i++ {
		v := NodeID(oldN + i)
		if _, ok := extra[v]; !ok {
			ng.ovl[v] = ng.newRow(nil)
		}
	}
	for v, more := range extra {
		row := append(append([]NodeID(nil), g.rowNeighbors(v)...), more...)
		ng.ovl[v] = ng.newRow(row)
		if int(v) < oldN {
			touched = append(touched, v)
		}
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	return ng, touched, nil
}

// rowNeighbors returns v's current neighbor list, tolerating ids beyond
// the flat arrays (new nodes of a parent overlay) — unlike Neighbors it
// must not index off for them.
func (g *Graph) rowNeighbors(v NodeID) []NodeID {
	if g.ovl != nil {
		if r := g.ovl[v]; r != nil {
			return r.nbr
		}
	}
	if int(v) >= len(g.off)-1 {
		return nil
	}
	return g.nbr[g.off[v]:g.off[v+1]]
}

// newRow freezes one overlay row: neighbors sorted by (type, id) with the
// typed sub-range table rebuilt, mirroring Builder.Build's row layout.
func (g *Graph) newRow(nbrs []NodeID) *ovlRow {
	nt := g.types.Len()
	sort.Slice(nbrs, func(i, j int) bool {
		ti, tj := g.nodeType[nbrs[i]], g.nodeType[nbrs[j]]
		if ti != tj {
			return ti < tj
		}
		return nbrs[i] < nbrs[j]
	})
	to := make([]int32, nt+1)
	idx := 0
	for t := 0; t < nt; t++ {
		to[t] = int32(idx)
		for idx < len(nbrs) && g.nodeType[nbrs[idx]] == TypeID(t) {
			idx++
		}
	}
	to[nt] = int32(idx)
	return &ovlRow{nbr: nbrs, typeOff: to}
}

// Compact folds the copy-on-write overlay into fresh flat CSR arrays and
// returns the result (the receiver itself when it has no overlay). The
// compacted graph is structurally identical to a from-scratch Build of the
// same node and edge set, and keeps the receiver's version.
func (g *Graph) Compact() *Graph {
	if g.ovl == nil {
		return g
	}
	n := g.NumNodes()
	nt := g.types.Len()
	ng := &Graph{
		types:    g.types,
		nodeType: g.nodeType,
		nodeName: g.nodeName,
		byType:   g.byType,
		numEdges: g.numEdges,
		version:  g.version,
	}
	ng.off = make([]int64, n+1)
	for v := 0; v < n; v++ {
		ng.off[v+1] = ng.off[v] + int64(g.Degree(NodeID(v)))
	}
	ng.nbr = make([]NodeID, ng.off[n])
	ng.typeOff = make([]int32, int64(n)*int64(nt+1))
	for v := 0; v < n; v++ {
		copy(ng.nbr[ng.off[v]:ng.off[v+1]], g.Neighbors(NodeID(v)))
		base := int64(v) * int64(nt+1)
		if r := g.ovl[NodeID(v)]; r != nil {
			copy(ng.typeOff[base:base+int64(nt)+1], r.typeOff)
		} else {
			k := int64(v) * int64(nt+1)
			copy(ng.typeOff[base:base+int64(nt)+1], g.typeOff[k:k+int64(nt)+1])
		}
	}
	return ng
}

// HopDistances runs a multi-source BFS from seeds and returns the hop
// distance of every node within max hops (seeds themselves at distance 0).
// Out-of-range seeds are ignored.
func (g *Graph) HopDistances(seeds []NodeID, max int) map[NodeID]int32 {
	dist := make(map[NodeID]int32, len(seeds))
	frontier := make([]NodeID, 0, len(seeds))
	for _, s := range seeds {
		if !g.validNode(s) {
			continue
		}
		if _, ok := dist[s]; !ok {
			dist[s] = 0
			frontier = append(frontier, s)
		}
	}
	for d := int32(1); int(d) <= max && len(frontier) > 0; d++ {
		var next []NodeID
		for _, v := range frontier {
			for _, u := range g.Neighbors(v) {
				if _, ok := dist[u]; !ok {
					dist[u] = d
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return dist
}

// Induced builds the node-induced subgraph of g on nodes (duplicates
// ignored) as a standalone flat graph whose type registry assigns the SAME
// TypeIDs as g, plus the mapping from subgraph id to original id (ascending
// in the original ids). Matching a metagraph on the subgraph therefore uses
// the exact type vocabulary of the full graph.
func Induced(g *Graph, nodes []NodeID) (*Graph, []NodeID) {
	toFull := append([]NodeID(nil), nodes...)
	sort.Slice(toFull, func(i, j int) bool { return toFull[i] < toFull[j] })
	uniq := toFull[:0]
	for i, v := range toFull {
		if i == 0 || v != toFull[i-1] {
			uniq = append(uniq, v)
		}
	}
	toFull = uniq

	b := NewBuilder()
	for _, name := range g.types.Names() {
		b.Types().Register(name)
	}
	toSub := make(map[NodeID]NodeID, len(toFull))
	for i, v := range toFull {
		toSub[v] = NodeID(i)
		b.AddNode(g.types.Name(g.Type(v)), g.Name(v))
	}
	for _, v := range toFull {
		for _, u := range g.Neighbors(v) {
			if v < u {
				if su, ok := toSub[u]; ok {
					b.AddEdge(toSub[v], su)
				}
			}
		}
	}
	return b.MustBuild(), toFull
}
