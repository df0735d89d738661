package semprox

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/metagraph"
)

// Engine snapshots. Mining and matching dominate the offline phase
// (Table III), and training adds gradient ascent on top — none of which a
// serving process should repeat on restart. Save captures everything the
// online phase needs (graph, epoch counter, options, metagraph set, every
// matched single-metagraph index, every trained class with its merged
// index and weights); LoadEngine restores an engine that answers
// Query/Proximity identically to the one that wrote the snapshot, and can
// still train new classes and apply updates because the matching cache and
// epoch counter are restored slot by slot.
//
// A live-updated engine round-trips too: the graph text format
// materializes the copy-on-write overlay, update overlays on the indices
// compact on the way out (index.Write), and the epoch counter plus the
// durable log position (LSN) ride in the snapshot header — so a loaded
// engine resumes at the saved epoch with nothing pending, answering
// exactly as the saved one did, and recovery knows which WAL records the
// snapshot already covers (see ReplayWAL).

// snapMetagraph rebuilds one metagraph via metagraph.New.
type snapMetagraph struct {
	Types []graph.TypeID
	Edges []metagraph.Edge
}

// snapPart is one matched slot of the engine's lazy matching cache.
type snapPart struct {
	Slot int
	Ix   []byte // index.Marshal of the single-metagraph part
}

// snapClass is one trained class model.
type snapClass struct {
	Name          string
	Kept          []int
	W             []float64
	LogLikelihood float64
	Iterations    int
	Ix            []byte // index.Marshal of the merged class index
}

// snapshot is the gob wire format of a saved engine.
type snapshot struct {
	Version    int
	Epoch      uint64 // serving epoch counter
	LSN        uint64 // durable log position
	Graph      []byte // graph.Write text format
	AnchorType string
	Opts       Options
	Metas      []snapMetagraph
	Parts      []snapPart
	Classes    []snapClass
}

// snapshotVersion is the wire version Save writes and the only one
// LoadEngine reads.
const snapshotVersion = 3

// Save serializes the engine so LoadEngine can restore it without mining,
// matching or training. Classes are written in sorted name order and every
// index serializes its frozen CSR arenas (compacted first), so saving the
// same engine twice yields identical bytes. Save reads one immutable
// epoch, so it is safe to call concurrently with queries, training, and
// updates — it simply snapshots whichever epoch is serving.
func (e *Engine) Save(w io.Writer) error {
	return e.saveEpoch(e.cur.Load(), w)
}

// SaveWait is Save with a durability gate for write-ahead-logged
// engines: the epoch to stream is pinned FIRST, wait is called with
// that epoch's LSN, and only after it returns is anything written.
// With wait = the WAL's WaitDurable this guarantees the snapshot never
// gets ahead of the durable log — without the gate, a pipelined commit
// (apply visible before fsync completes) could hand a bootstrapping
// follower state the primary loses in a crash, and the LSNs would be
// silently reassigned to different records under it.
func (e *Engine) SaveWait(w io.Writer, wait func(lsn uint64) error) error {
	ep := e.cur.Load()
	if wait != nil {
		if err := wait(ep.lsn); err != nil {
			return fmt.Errorf("semprox: snapshot durability gate at LSN %d: %w", ep.lsn, err)
		}
	}
	return e.saveEpoch(ep, w)
}

func (e *Engine) saveEpoch(ep *epoch, w io.Writer) error {
	var gbuf bytes.Buffer
	if err := graph.Write(&gbuf, ep.g); err != nil {
		return fmt.Errorf("semprox: snapshot graph: %w", err)
	}
	s := snapshot{
		Version:    snapshotVersion,
		Epoch:      ep.version,
		LSN:        ep.lsn,
		Graph:      gbuf.Bytes(),
		AnchorType: ep.g.Types().Name(e.anchor),
		Opts:       e.opts,
	}
	s.Metas = make([]snapMetagraph, len(e.ms))
	for i, m := range e.ms {
		s.Metas[i] = snapMetagraph{
			Types: m.Types(),
			Edges: append([]metagraph.Edge(nil), m.Edges()...),
		}
	}
	for i, ix := range ep.metaIx {
		if ix == nil {
			continue
		}
		b, err := index.Marshal(ix)
		if err != nil {
			return fmt.Errorf("semprox: snapshot metagraph %d: %w", i, err)
		}
		s.Parts = append(s.Parts, snapPart{Slot: i, Ix: b})
	}
	names := make([]string, 0, len(ep.classes))
	for name := range ep.classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cm := ep.classes[name]
		b, err := index.Marshal(cm.ix)
		if err != nil {
			return fmt.Errorf("semprox: snapshot class %q: %w", name, err)
		}
		s.Classes = append(s.Classes, snapClass{
			Name:          name,
			Kept:          cm.kept,
			W:             cm.model.W,
			LogLikelihood: cm.model.LogLikelihood,
			Iterations:    cm.model.Iterations,
			Ix:            b,
		})
	}
	return gob.NewEncoder(w).Encode(&s)
}

// LoadEngine restores an engine written by Save. The loaded engine answers
// Query, Proximity, Weights and Classes identically to the saved one,
// resumes at the saved epoch, and training new classes picks up the
// restored matching cache (already matched metagraphs are never
// re-matched).
func LoadEngine(r io.Reader) (*Engine, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("semprox: snapshot decode: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("semprox: unsupported snapshot version %d (this build reads only version %d)", s.Version, snapshotVersion)
	}
	g, err := graph.Read(bytes.NewReader(s.Graph))
	if err != nil {
		return nil, fmt.Errorf("semprox: snapshot graph: %w", err)
	}
	g = g.WithVersion(s.Epoch)
	anchor := g.Types().ID(s.AnchorType)
	if anchor == graph.InvalidType {
		return nil, fmt.Errorf("semprox: snapshot anchor type %q not in graph", s.AnchorType)
	}
	if !validEngine(s.Opts.Engine) {
		return nil, fmt.Errorf("semprox: snapshot matching engine %q unknown", s.Opts.Engine)
	}
	e := &Engine{
		anchor: anchor,
		opts:   s.Opts,
		ms:     make([]*metagraph.Metagraph, len(s.Metas)),
	}
	for i, sm := range s.Metas {
		m, err := metagraph.New(sm.Types, sm.Edges)
		if err != nil {
			return nil, fmt.Errorf("semprox: snapshot metagraph %d: %w", i, err)
		}
		e.ms[i] = m
	}
	ep := &epoch{
		g:       g,
		metaIx:  make([]*index.Index, len(e.ms)),
		classes: make(map[string]*classModel, len(s.Classes)),
		version: s.Epoch,
		lsn:     s.LSN,
	}
	for _, p := range s.Parts {
		if p.Slot < 0 || p.Slot >= len(e.ms) {
			return nil, fmt.Errorf("semprox: snapshot part slot %d out of range [0, %d)", p.Slot, len(e.ms))
		}
		if ep.metaIx[p.Slot] != nil {
			return nil, fmt.Errorf("semprox: snapshot part slot %d duplicated", p.Slot)
		}
		ix, err := index.Unmarshal(p.Ix)
		if err != nil {
			return nil, fmt.Errorf("semprox: snapshot part %d: %w", p.Slot, err)
		}
		if ix.NumMeta() != 1 {
			return nil, fmt.Errorf("semprox: snapshot part %d spans %d metagraphs, want 1", p.Slot, ix.NumMeta())
		}
		ep.metaIx[p.Slot] = ix
	}
	for _, sc := range s.Classes {
		if _, dup := ep.classes[sc.Name]; dup {
			return nil, fmt.Errorf("semprox: snapshot class %q duplicated", sc.Name)
		}
		if len(sc.W) != len(sc.Kept) {
			return nil, fmt.Errorf("semprox: snapshot class %q: %d weights for %d metagraphs", sc.Name, len(sc.W), len(sc.Kept))
		}
		for _, idx := range sc.Kept {
			if idx < 0 || idx >= len(e.ms) {
				return nil, fmt.Errorf("semprox: snapshot class %q keeps metagraph %d out of range [0, %d)", sc.Name, idx, len(e.ms))
			}
		}
		ix, err := index.Unmarshal(sc.Ix)
		if err != nil {
			return nil, fmt.Errorf("semprox: snapshot class %q: %w", sc.Name, err)
		}
		if ix.NumMeta() != len(sc.Kept) {
			return nil, fmt.Errorf("semprox: snapshot class %q: index spans %d metagraphs, want %d", sc.Name, ix.NumMeta(), len(sc.Kept))
		}
		ep.classes[sc.Name] = &classModel{
			kept: sc.Kept,
			ix:   ix,
			model: &core.Model{
				W:             sc.W,
				LogLikelihood: sc.LogLikelihood,
				Iterations:    sc.Iterations,
			},
		}
	}
	e.cur.Store(ep)
	return e, nil
}
