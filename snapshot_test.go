package semprox

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/fixtures"
)

// saveLoad round-trips an engine through the snapshot format.
func saveLoad(t *testing.T, eng *Engine) *Engine {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestSnapshotRoundTrip is the acceptance property: a saved+loaded engine
// answers queries identically (nodes AND bit-for-bit scores) to the
// in-memory engine that wrote the snapshot.
func TestSnapshotRoundTrip(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	loaded := saveLoad(t, eng)

	if loaded.NumMetagraphs() != eng.NumMetagraphs() {
		t.Fatalf("metagraphs: %d, want %d", loaded.NumMetagraphs(), eng.NumMetagraphs())
	}
	if loaded.MatchedCount() != eng.MatchedCount() {
		t.Fatalf("matched: %d, want %d", loaded.MatchedCount(), eng.MatchedCount())
	}
	if got := loaded.Classes(); len(got) != 1 || got[0] != "classmate" {
		t.Fatalf("classes = %v", got)
	}
	wantW, gotW := eng.Weights("classmate"), loaded.Weights("classmate")
	if len(wantW) != len(gotW) {
		t.Fatalf("weights: %d, want %d", len(gotW), len(wantW))
	}
	for i := range wantW {
		if wantW[i] != gotW[i] {
			t.Fatalf("weight[%d] = %v, want %v", i, gotW[i], wantW[i])
		}
	}
	for _, name := range []string{"Kate", "Bob", "Alice", "Jay", "Tom"} {
		q := g.NodeByName(name)
		want, err := eng.Query("classmate", q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Query("classmate", q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %s: %d results, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %s: result[%d] = %+v, want %+v", name, i, got[i], want[i])
			}
		}
		p1, err1 := eng.Proximity("classmate", q, g.NodeByName("Jay"))
		p2, err2 := loaded.Proximity("classmate", q, g.NodeByName("Jay"))
		if err1 != nil || err2 != nil || p1 != p2 {
			t.Fatalf("proximity %s: %v/%v vs %v/%v", name, p1, err1, p2, err2)
		}
	}
}

// TestSnapshotDeterministicBytes pins that saving the same engine twice —
// and saving a loaded engine — produces identical bytes, so snapshots can
// be content-addressed and diffed.
func TestSnapshotDeterministicBytes(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	var a, b bytes.Buffer
	if err := eng.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same engine differ")
	}
	loaded, err := LoadEngine(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := loaded.Save(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("save→load→save drifted")
	}
}

// TestSnapshotDualStageResumesTraining saves a dual-stage engine (a strict
// subset of metagraphs matched), reloads it, and trains a NEW class on the
// loaded engine: the restored matching cache must be picked up instead of
// re-matched, and the new class must answer queries.
func TestSnapshotDualStageResumesTraining(t *testing.T) {
	eng, g := toyEngine(t)
	eng.TrainDualStage("classmate", classmateExamples(g), 2)
	matched := eng.MatchedCount()
	if matched == 0 || matched >= eng.NumMetagraphs() {
		t.Fatalf("dual stage matched %d of %d; need a strict subset", matched, eng.NumMetagraphs())
	}
	loaded := saveLoad(t, eng)
	if loaded.MatchedCount() != matched {
		t.Fatalf("loaded matched %d, want %d", loaded.MatchedCount(), matched)
	}
	loaded.Train("family", []Example{
		{Q: g.NodeByName("Alice"), X: g.NodeByName("Bob"), Y: g.NodeByName("Tom")},
	})
	if loaded.MatchedCount() != loaded.NumMetagraphs() {
		t.Fatal("full training on the loaded engine should match everything")
	}
	if _, err := loaded.Query("family", g.NodeByName("Alice"), 5); err != nil {
		t.Fatal(err)
	}
	// The original class still answers identically after the new training.
	want, _ := eng.Query("classmate", g.NodeByName("Kate"), 10)
	got, err := loaded.Query("classmate", g.NodeByName("Kate"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("post-train query drifted: %d vs %d results", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-train result[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSnapshotUntrainedEngine round-trips an engine with no trained
// classes and no matched metagraphs (mining output only).
func TestSnapshotUntrainedEngine(t *testing.T) {
	eng, g := toyEngine(t)
	loaded := saveLoad(t, eng)
	if loaded.NumMetagraphs() != eng.NumMetagraphs() || loaded.MatchedCount() != 0 {
		t.Fatalf("untrained round trip: %d metagraphs, %d matched",
			loaded.NumMetagraphs(), loaded.MatchedCount())
	}
	loaded.Train("classmate", classmateExamples(g))
	if _, err := loaded.Query("classmate", g.NodeByName("Kate"), 5); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRejectsCorruptInput exercises the load-time validation.
func TestSnapshotRejectsCorruptInput(t *testing.T) {
	if _, err := LoadEngine(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	eng := func() *Engine {
		g := fixtures.Toy()
		e, err := NewEngine(g, "user", DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}()
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	// Any other wire version is refused by name, never misread.
	for _, v := range []int{1, 2, snapshotVersion + 1} {
		var s snapshot
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&s); err != nil {
			t.Fatal(err)
		}
		s.Version = v
		var other bytes.Buffer
		if err := gob.NewEncoder(&other).Encode(&s); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadEngine(&other); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version") {
			t.Fatalf("version %d snapshot: err = %v, want unsupported version", v, err)
		}
	}
}

// fullSnapshot saves a trained, updated engine — the richest wire shape
// (graph, epoch, LSN, matched parts, classes) — for the corruption tests.
func fullSnapshot(t *testing.T) []byte {
	t.Helper()
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	if _, err := eng.ApplyUpdate(Delta{
		Nodes: []DeltaNode{{Type: "user", Value: "Zoe"}},
		Edges: []Edge{{U: NodeID(g.NumNodes()), V: g.NodeByName("College A")}},
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotEveryPrefixTruncationErrors: a crash mid-save (the reason
// semproxd stages snapshots through a temp file) leaves a prefix; loading
// any strict prefix must return an error, never succeed and never panic.
func TestSnapshotEveryPrefixTruncationErrors(t *testing.T) {
	data := fullSnapshot(t)
	for i := 0; i < len(data); i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LoadEngine panicked on %d-byte prefix of %d: %v", i, len(data), r)
				}
			}()
			if _, err := LoadEngine(bytes.NewReader(data[:i])); err == nil {
				t.Fatalf("prefix of %d/%d bytes loaded without error", i, len(data))
			}
		}()
	}
}

// TestSnapshotBitFlipsNeverPanic flips bits across the snapshot: loads
// may fail (almost all do) or — when the flip lands in a don't-care byte
// — succeed, but must never panic. This is the contract that lets
// semproxd load operator-provided files straight off disk.
func TestSnapshotBitFlipsNeverPanic(t *testing.T) {
	data := fullSnapshot(t)
	stride := len(data)/4096 + 1
	for pos := 0; pos < len(data); pos += stride {
		for _, mask := range []byte{0x01, 0x80} {
			mutated := append([]byte(nil), data...)
			mutated[pos] ^= mask
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("LoadEngine panicked on bit flip at %d (mask %#x): %v", pos, mask, r)
					}
				}()
				eng, err := LoadEngine(bytes.NewReader(mutated))
				if err != nil || eng == nil {
					return
				}
				// A flip that still loads must yield a usable engine:
				// probing the core read paths must not panic either.
				_ = eng.Stats()
				for _, class := range eng.Classes() {
					_, _ = eng.Query(class, 0, 3)
				}
			}()
		}
	}
}
