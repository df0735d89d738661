package semprox

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/wal"
)

// lastWALSegment returns the newest segment file of a WAL directory.
func lastWALSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no wal segments in %s: %v", dir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// TestCrashRecoveryEqualsUninterrupted is the acceptance property of the
// durability subsystem: a primary that is killed after N random durable
// updates — no clean shutdown, snapshot arbitrarily stale, a torn record
// on the log tail — recovers (snapshot + WAL replay) to an engine whose
// every query, proximity, weight vector and stat is byte-identical to the
// uninterrupted engine that applied the same deltas, at multiple worker
// counts.
func TestCrashRecoveryEqualsUninterrupted(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(900 + trial)))
			eng, g := toyEngine(t)
			eng.Train("classmate", classmateExamples(g))
			if trial%2 == 1 {
				eng.TrainDualStage("classmate2", classmateExamples(g), 2)
			}

			dir := t.TempDir()
			w, err := wal.Open(dir, wal.Options{BaseLSN: eng.LSN(), SegmentBytes: 256})
			if err != nil {
				t.Fatal(err)
			}

			// The snapshot is taken mid-sequence (after snapAt of the N
			// updates), so recovery must combine it with the WAL suffix.
			const N = 6
			snapAt := 1 + trial%3
			var snap bytes.Buffer
			if err := eng.Save(&snap); err != nil {
				t.Fatal(err)
			}
			for step := 1; step <= N; step++ {
				d := randomToyDelta(rng, eng.Graph().NumNodes(), fmt.Sprintf("cr%d-%d", trial, step))
				// The primary's write path: durable first, then applied at
				// the LSN the log assigned.
				lsn, err := w.Append(d)
				if err != nil {
					t.Fatal(err)
				}
				st, err := eng.ApplyUpdateAt(d, lsn)
				if err != nil {
					t.Fatal(err)
				}
				if st.LSN != lsn || eng.LSN() != lsn {
					t.Fatalf("step %d: stats LSN %d, engine LSN %d, want %d", step, st.LSN, eng.LSN(), lsn)
				}
				if step == snapAt {
					snap.Reset()
					if err := eng.Save(&snap); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Crash: the WAL handle is abandoned (never Closed) and the
			// last segment gains a torn half-record, exactly what dying
			// mid-write leaves behind.
			f, err := os.OpenFile(lastWALSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad}); err != nil {
				t.Fatal(err)
			}
			f.Close()

			// Recovery: snapshot, then the log tail beyond it.
			rec, err := LoadEngine(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if rec.LSN() != uint64(snapAt) {
				t.Fatalf("snapshot LSN %d, want %d", rec.LSN(), snapAt)
			}
			w2, err := wal.Open(dir, wal.Options{SegmentBytes: 256})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			applied, err := ReplayWAL(rec, w2)
			if err != nil {
				t.Fatal(err)
			}
			if applied != N-snapAt {
				t.Fatalf("replayed %d records, want %d", applied, N-snapAt)
			}
			if rec.LSN() != eng.LSN() || rec.Epoch() != eng.Epoch() {
				t.Fatalf("recovered at LSN %d epoch %d, primary at LSN %d epoch %d",
					rec.LSN(), rec.Epoch(), eng.LSN(), eng.Epoch())
			}

			// Byte-identical serving state, across worker counts.
			assertEngineEquivalent(t, rec, eng, fmt.Sprintf("crash trial %d", trial))

			// Identical stats and identical snapshot bytes once both sides
			// fold their overlays.
			eng.Compact()
			rec.Compact()
			if got, want := rec.Stats(), eng.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("stats diverged:\n got %+v\nwant %+v", got, want)
			}
			var b1, b2 bytes.Buffer
			if err := eng.Save(&b1); err != nil {
				t.Fatal(err)
			}
			if err := rec.Save(&b2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Fatal("recovered engine snapshot differs from uninterrupted engine snapshot")
			}

			// A second crash-recovery from the post-recovery state keeps
			// working: the reopened log accepts appends past the tail.
			d := randomToyDelta(rng, rec.Graph().NumNodes(), fmt.Sprintf("cr%d-post", trial))
			lsn, err := w2.Append(d)
			if err != nil {
				t.Fatal(err)
			}
			if lsn != uint64(N+1) {
				t.Fatalf("post-recovery append at LSN %d, want %d", lsn, N+1)
			}
			if _, err := rec.ApplyUpdateAt(d, lsn); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplayWALRejectsTruncatedLog: recovering a snapshot older than the
// log's truncation horizon must fail loudly — the missing records cannot
// be reconstructed.
func TestReplayWALRejectsTruncatedLog(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))
	var oldSnap bytes.Buffer
	if err := eng.Save(&oldSnap); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(3))
	for step := 1; step <= 6; step++ {
		d := randomToyDelta(rng, eng.Graph().NumNodes(), fmt.Sprintf("tr-%d", step))
		lsn, err := w.Append(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ApplyUpdateAt(d, lsn); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh snapshot at LSN 6 makes the prefix redundant; drop it.
	if err := w.TruncateThrough(4); err != nil {
		t.Fatal(err)
	}
	if w.FirstLSN() <= 1 {
		t.Skip("truncation kept the full log (single segment); nothing to assert")
	}
	old, err := LoadEngine(bytes.NewReader(oldSnap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayWAL(old, w); err == nil {
		t.Fatal("replaying a truncated log over a too-old snapshot succeeded")
	}
}

// TestReplayWALRefusesRejectedRecord: a primary never logs a delta the
// engine rejects, so a logged record the engine rejects means the log
// does not belong to the snapshot (a mispaired -wal directory) — replay
// must abort instead of silently diverging.
func TestReplayWALRefusesRejectedRecord(t *testing.T) {
	eng, g := toyEngine(t)
	eng.Train("classmate", classmateExamples(g))

	w, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(Delta{Nodes: []DeltaNode{{Type: "user", Value: "Zoe"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Delta{Nodes: []DeltaNode{{Type: "nosuchtype", Value: "ghost"}}}); err != nil {
		t.Fatal(err)
	}

	if _, err := ReplayWAL(eng, w); err == nil {
		t.Fatal("replaying a rejected record succeeded")
	}
	// The valid prefix applied before the abort; nothing from the
	// rejected record leaked in.
	if eng.LSN() != 1 || eng.Graph().NodeByName("ghost") != InvalidNode {
		t.Fatalf("after aborted replay: LSN %d (want 1), ghost present %v",
			eng.LSN(), eng.Graph().NodeByName("ghost") != InvalidNode)
	}
}

// TestApplyUpdateAtValidation pins the LSN contract: zero and
// non-advancing LSNs are rejected without touching the engine.
func TestApplyUpdateAtValidation(t *testing.T) {
	eng, _ := toyEngine(t)
	d := Delta{Nodes: []DeltaNode{{Type: "user", Value: "Zoe"}}}
	if _, err := eng.ApplyUpdateAt(d, 0); err == nil {
		t.Fatal("LSN 0 accepted")
	}
	if _, err := eng.ApplyUpdateAt(d, 5); err != nil {
		t.Fatal(err)
	}
	if eng.LSN() != 5 {
		t.Fatalf("LSN = %d, want 5", eng.LSN())
	}
	if _, err := eng.ApplyUpdateAt(d, 5); err == nil {
		t.Fatal("stale LSN accepted")
	}
	if _, err := eng.ApplyUpdateAt(d, 3); err == nil {
		t.Fatal("regressing LSN accepted")
	}
	// Plain ApplyUpdate keeps advancing from wherever the LSN is.
	st, err := eng.ApplyUpdate(Delta{Nodes: []DeltaNode{{Type: "user", Value: "Max"}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.LSN != 6 {
		t.Fatalf("ApplyUpdate LSN = %d, want 6", st.LSN)
	}
}
