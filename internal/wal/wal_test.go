package wal

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// delta builds a small distinguishable delta for record i.
func delta(i int) graph.Delta {
	return graph.Delta{
		Nodes: []graph.DeltaNode{{Type: "user", Value: fmt.Sprintf("u-%d", i)}},
		Edges: []graph.Edge{{U: graph.NodeID(i), V: graph.NodeID(i + 1)}},
	}
}

// appendN appends n deltas and asserts contiguous LSNs from firstWant.
func appendN(t *testing.T, w *WAL, n int, firstWant uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		lsn, err := w.Append(delta(i))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != firstWant+uint64(i) {
			t.Fatalf("append %d: lsn %d, want %d", i, lsn, firstWant+uint64(i))
		}
	}
}

// collect replays everything after afterLSN into a slice.
func collect(t *testing.T, w *WAL, afterLSN uint64) []Record {
	t.Helper()
	var out []Record
	if err := w.Replay(afterLSN, func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 10, 1)
	if got := w.DurableLSN(); got != 10 {
		t.Fatalf("durable = %d, want 10", got)
	}
	recs := collect(t, w, 0)
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d: lsn %d", i, r.LSN)
		}
		if !reflect.DeepEqual(r.Delta, delta(i)) {
			t.Fatalf("record %d: delta %+v, want %+v", i, r.Delta, delta(i))
		}
	}
	// Replay from the middle.
	if recs := collect(t, w, 7); len(recs) != 3 || recs[0].LSN != 8 {
		t.Fatalf("replay after 7: %+v", recs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: durable position and records survive, and Since serves
	// from disk (the in-memory tail dies with the process).
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.DurableLSN(); got != 10 {
		t.Fatalf("reopened durable = %d, want 10", got)
	}
	disk, durable, err := w2.Since(7, 0)
	if err != nil || durable != 10 || len(disk) != 3 || disk[0].LSN != 8 {
		t.Fatalf("Since after reopen = %+v (durable %d, %v)", disk, durable, err)
	}
	if !reflect.DeepEqual(disk[0].Delta, delta(7)) {
		t.Fatalf("disk-served record drifted: %+v", disk[0].Delta)
	}
	appendN(t, w2, 1, 11)
	// The fresh append is tail-served; it must splice cleanly after the
	// disk-recovered history.
	both, _, err := w2.Since(9, 0)
	if err != nil || len(both) != 2 || both[0].LSN != 10 || both[1].LSN != 11 {
		t.Fatalf("Since spanning reopen = %+v, %v", both, err)
	}
}

func TestSinceAndWaitSince(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 5, 1)

	recs, durable, err := w.Since(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if durable != 5 || len(recs) != 2 || recs[0].LSN != 3 || recs[1].LSN != 4 {
		t.Fatalf("Since(2, 2) = %+v, durable %d", recs, durable)
	}
	recs, _, err = w.Since(5, 0)
	if err != nil || len(recs) != 0 {
		t.Fatalf("Since(5) = %+v, %v", recs, err)
	}

	// WaitSince returns immediately when records exist...
	if !w.WaitSince(context.Background(), 0) {
		t.Fatal("WaitSince(0) should return true")
	}
	// ...times out when none arrive...
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if w.WaitSince(ctx, 5) {
		t.Fatal("WaitSince(5) should time out")
	}
	// ...and wakes on the next durable append.
	done := make(chan bool, 1)
	go func() { done <- w.WaitSince(context.Background(), 5) }()
	time.Sleep(10 * time.Millisecond)
	appendN(t, w, 1, 6)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("WaitSince woke with false")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitSince never woke")
	}
}

// TestGroupCommitConcurrent hammers Append from many goroutines; run with
// -race this pins the group-commit path. Every LSN must come back unique
// and the replayed log must hold exactly the appended set.
func TestGroupCommitConcurrent(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	lsns := make([][]uint64, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := w.Append(delta(g*1000 + i))
				if err != nil {
					t.Error(err)
					return
				}
				lsns[g] = append(lsns[g], lsn)
			}
		}(g)
	}
	wg.Wait()
	var all []uint64
	for _, ls := range lsns {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, lsn := range all {
		if lsn != uint64(i+1) {
			t.Fatalf("lsn set not contiguous at %d: %d", i, lsn)
		}
	}
	if recs := collect(t, w, 0); len(recs) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*perWriter)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 64}) // rotate every record or two
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 12, 1)
	if n := w.SegmentCount(); n < 3 {
		t.Fatalf("only %d segments after 12 appends at 64-byte rotation", n)
	}
	if recs := collect(t, w, 0); len(recs) != 12 {
		t.Fatalf("replayed %d records across segments, want 12", len(recs))
	}

	// Truncating through LSN 6 drops sealed prefix segments but keeps
	// everything needed to replay LSN 7+.
	if err := w.TruncateThrough(6); err != nil {
		t.Fatal(err)
	}
	if first := w.FirstLSN(); first == 0 || first > 7 {
		t.Fatalf("after truncate FirstLSN = %d, want <= 7 and > 0", first)
	}
	if recs := collect(t, w, 6); len(recs) != 6 || recs[0].LSN != 7 {
		t.Fatalf("replay after truncate: %d records, first %d", len(recs), recs[0].LSN)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen after truncation: the log resumes at LSN 13.
	w2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	appendN(t, w2, 1, 13)
}

func TestBaseLSNSeedsEmptyLog(t *testing.T) {
	w, err := Open(t.TempDir(), Options{BaseLSN: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.DurableLSN(); got != 41 {
		t.Fatalf("durable = %d, want 41", got)
	}
	appendN(t, w, 1, 42)
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// TestRecoverTruncatesTornTail simulates a crash mid-write: garbage (a
// partial record) after the last valid record must be truncated away on
// Open, keeping every complete record.
func TestRecoverTruncatesTornTail(t *testing.T) {
	for _, garbage := range [][]byte{
		{0x00},                         // lone zero byte
		{0x00, 0x00, 0x00, 0x10, 0xaa}, // plausible length, missing payload
		make([]byte, 200),              // a whole zeroed "record"
		// A frame claiming the largest legal payload: recovery must not
		// allocate for bytes the file does not hold.
		binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, MaxRecordBytes), 0xdeadbeef),
	} {
		dir := t.TempDir()
		w, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, w, 5, 1)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(lastSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(garbage); err != nil {
			t.Fatal(err)
		}
		f.Close()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w2, err := Open(dir, Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("garbage %v: reopen: %v", garbage, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<10 {
			t.Fatalf("garbage %v: recovery allocated %d bytes", garbage, alloc)
		}
		if got := w2.DurableLSN(); got != 5 {
			t.Fatalf("garbage %v: durable = %d, want 5", garbage, got)
		}
		if recs := collect(t, w2, 0); len(recs) != 5 {
			t.Fatalf("garbage %v: %d records, want 5", garbage, len(recs))
		}
		// The log keeps appending cleanly past the healed tail.
		appendN(t, w2, 1, 6)
		w2.Close()
	}
}

// TestRecoverBitFlips flips every byte of a closed single-segment log in
// turn: Open must never panic — it either truncates the tail (a flip in
// the last records or their framing) or reports an error (header damage).
// Flips strictly before the final record must never lose earlier records
// silently beyond the flip point... they truncate from the damaged record.
func TestRecoverBitFlips(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 4, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(pristine); pos++ {
		mutated := append([]byte(nil), pristine...)
		mutated[pos] ^= 0x40
		if err := os.WriteFile(seg, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(dir, Options{})
		if err != nil {
			continue // header or name mismatch: rejected, never panicked
		}
		// Accepted: the surviving prefix must replay without error and be
		// a prefix of the original records.
		recs := collect(t, w2, 0)
		for i, r := range recs {
			if r.LSN != uint64(i+1) || !reflect.DeepEqual(r.Delta, delta(i)) {
				t.Fatalf("flip at %d: surviving record %d corrupt: %+v", pos, i, r)
			}
		}
		w2.Close()
	}
	if err := os.WriteFile(seg, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverDropsTornSegmentCreation simulates a crash between rotate's
// segment creation and its first write: a trailing segment shorter than
// its header holds no data and must be dropped on Open, resuming the
// previous segment — not brick the log.
func TestRecoverDropsTornSegmentCreation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 6, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A rotation target that never got its header fully written.
	torn := filepath.Join(dir, "wal-00000000000000ff.seg")
	if err := os.WriteFile(torn, []byte("SPXW"), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatalf("torn segment creation bricked the log: %v", err)
	}
	defer w2.Close()
	if got := w2.DurableLSN(); got != 6 {
		t.Fatalf("durable = %d, want 6", got)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn segment not removed")
	}
	appendN(t, w2, 1, 7)

	// The same applies to a sole empty segment of a fresh log.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "wal-0000000000000001.seg"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w3, err := Open(dir2, Options{})
	if err != nil {
		t.Fatalf("sole torn segment bricked the log: %v", err)
	}
	defer w3.Close()
	appendN(t, w3, 1, 1)
}

// TestRecoverRejectsCorruptSealedSegment: damage in a sealed (non-final)
// segment is unrecoverable data loss and must fail Open loudly rather
// than truncate silently.
func TestRecoverRejectsCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 10, 1)
	if w.SegmentCount() < 2 {
		t.Fatal("need at least two segments")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	sort.Strings(names)
	sealed := names[0]
	b, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // flip inside the sealed segment's last record
	if err := os.WriteFile(sealed, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 64}); err == nil {
		t.Fatal("corrupt sealed segment accepted")
	}
}

// TestRecoverRejectsMissingSegment: a gap in the segment chain (operator
// deleted a middle file) must fail Open.
func TestRecoverRejectsMissingSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 10, 1)
	if w.SegmentCount() < 3 {
		t.Fatal("need at least three segments")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	sort.Strings(names)
	if err := os.Remove(names[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 64}); err == nil {
		t.Fatal("gapped segment chain accepted")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(delta(0)); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatal("second close should be a no-op")
	}
}

// BenchmarkWALAppend measures the group-commit append path. The parallel
// variant is where batching pays: many goroutines share each fsync.
func BenchmarkWALAppend(b *testing.B) {
	d := delta(7)
	b.Run("serial", func(b *testing.B) {
		w, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Append(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		w, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := w.Append(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// TestAppendRejectsUndecodableDelta: a record is only durable if it is
// also replayable — a delta the decoder's bounds would reject (here a
// >1MB string) must be refused at Append, not acknowledged and then
// discovered unreplayable after a crash.
func TestAppendRejectsUndecodableDelta(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	huge := graph.Delta{Nodes: []graph.DeltaNode{{Type: "user", Value: string(make([]byte, 2<<20))}}}
	if _, err := w.Append(huge); err == nil {
		t.Fatal("Append acknowledged a delta DecodeDelta rejects")
	}
	// The log is still healthy and appendable afterwards.
	if w.Err() != nil {
		t.Fatalf("refused append poisoned the log: %v", w.Err())
	}
	if _, err := w.Append(delta(1)); err != nil {
		t.Fatal(err)
	}
}

// TestReplayFailsOnSealedSegmentCorruption: corruption that lands in a
// sealed segment AFTER Open's validation must surface as a replay error,
// never as a silent mid-segment truncation of the read.
func TestReplayFailsOnSealedSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 1; i <= 8; i++ {
		if _, err := w.Append(delta(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.SegmentCount() < 2 {
		t.Fatalf("expected rotation, have %d segment(s)", w.SegmentCount())
	}
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	// Flip one payload byte in the first (sealed) segment.
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+frameSize+2] ^= 0xff
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Replay(0, func(Record) error { return nil }); err == nil {
		t.Fatal("replay over a corrupt sealed segment reported success")
	}
}

// TestSinceRawDiskPathByteBound drives the byte budget through the
// segment-scan path — a reopened log has an empty in-memory tail, the
// position every lagging follower reads from. The budget must stop the
// scan early WITHOUT tripping the below-durable corruption check (the
// early stop is a budget, not a torn record), keep the prefix
// contiguous, and still hand over a first record regardless of size.
func TestSinceRawDiskPathByteBound(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 6, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	one := len(graph.EncodeDelta(delta(0))) // deltas 0..5 encode to equal sizes
	recs, durable, err := w.SinceRaw(0, 0, 2*one)
	if err != nil {
		t.Fatalf("budget-limited disk scan errored: %v", err)
	}
	if durable != 6 {
		t.Fatalf("durable = %d, want 6", durable)
	}
	if len(recs) != 2 || recs[0].LSN != 1 || recs[1].LSN != 2 {
		t.Fatalf("budget of two records returned %+v", recs)
	}
	// A budget smaller than any record still returns the first one.
	recs, _, err = w.SinceRaw(2, 0, 1)
	if err != nil || len(recs) != 1 || recs[0].LSN != 3 {
		t.Fatalf("minimal budget: recs %+v, err %v", recs, err)
	}
	// Re-polling past the budgeted prefix drains the rest.
	recs, _, err = w.SinceRaw(3, 0, 0)
	if err != nil || len(recs) != 3 || recs[0].LSN != 4 || recs[2].LSN != 6 {
		t.Fatalf("drain: recs %+v, err %v", recs, err)
	}
}

// TestReplayFailsOnActiveSegmentCorruptionBelowDurable: the active
// segment is scanned tolerantly only for the torn bytes a crash leaves
// past the durable bound — corruption BELOW the durable LSN must surface
// as an error, or a disk-path reader (replay, the replication feed)
// would silently receive a truncated prefix and a lagging follower would
// wedge below the corrupt record with no alarm.
func TestReplayFailsOnActiveSegmentCorruptionBelowDurable(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 5, 1)
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want one segment, have %v (%v)", names, err)
	}
	// Flip one payload byte in the first durable record of the (still
	// active) segment.
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+frameSize+2] ^= 0xff
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.Replay(0, func(Record) error { return nil }); err == nil {
		t.Fatal("replay over a corrupt active segment reported a silently truncated view as success")
	}
}

// TestErrReportsClosedAndHealthy pins the Err contract readiness relies
// on: nil while healthy, non-nil once the log can no longer append.
func TestErrReportsClosedAndHealthy(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Err() != nil {
		t.Fatalf("healthy log reports %v", w.Err())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Err() == nil {
		t.Fatal("closed log reports healthy")
	}
}
