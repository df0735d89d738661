package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestTermStampsAndSurvivesRestart: records carry the term current at
// their append, SetTerm raises it durably (sidecar first), and a reopen
// restores both the current term and every record's stamped term.
func TestTermStampsAndSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Term(); got != 1 {
		t.Fatalf("fresh log term = %d, want 1", got)
	}
	if got := w.LastTerm(); got != 0 {
		t.Fatalf("empty log LastTerm = %d, want 0", got)
	}
	appendN(t, w, 2, 1)
	if err := w.SetTerm(3); err != nil {
		t.Fatal(err)
	}
	if got := w.Term(); got != 3 {
		t.Fatalf("term after SetTerm(3) = %d", got)
	}
	if got := w.LastTerm(); got != 1 {
		t.Fatalf("LastTerm before any term-3 record = %d, want 1", got)
	}
	appendN(t, w, 2, 3)
	if got := w.LastTerm(); got != 3 {
		t.Fatalf("LastTerm = %d, want 3", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Term(); got != 3 {
		t.Fatalf("reopened term = %d, want 3", got)
	}
	wantTerms := []uint64{1, 1, 3, 3}
	for i, r := range collect(t, w2, 0) {
		if r.Term != wantTerms[i] {
			t.Fatalf("record %d: term %d, want %d", r.LSN, r.Term, wantTerms[i])
		}
	}
	for lsn, want := range map[uint64]uint64{1: 1, 2: 1, 3: 3, 4: 3} {
		if got, ok := w2.TermAt(lsn); !ok || got != want {
			t.Fatalf("TermAt(%d) = %d, %v; want %d", lsn, got, ok, want)
		}
	}
	if _, ok := w2.TermAt(5); ok {
		t.Fatal("TermAt past the durable end reported ok")
	}
	if _, ok := w2.TermAt(0); ok {
		t.Fatal("TermAt(0) reported ok")
	}
}

// TestSetTermRefusesRegression: terms are the fencing order — lowering
// one would let a zombie's records interleave as current.
func TestSetTermRefusesRegression(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.SetTerm(4); err != nil {
		t.Fatal(err)
	}
	if err := w.SetTerm(2); err == nil {
		t.Fatal("term regression accepted")
	}
	if err := w.SetTerm(4); err != nil {
		t.Fatalf("re-setting the current term must be a no-op, got %v", err)
	}
}

// TestOpenRejectsMispairedTermSidecar: a term sidecar BEHIND the newest
// record's term violates the sidecar-before-record invariant and can
// only mean mixed log directories — Open must refuse, not repair.
func TestOpenRejectsMispairedTermSidecar(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetTerm(5); err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, termFile), []byte("2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("sidecar behind the log's records accepted")
	}
}

// TestOpenRejectsTermRegressionInLog: a record whose term is lower than
// its predecessor's is corruption or a zombie's interleaved writes —
// never a recoverable tail. Doctor a valid segment (correct CRC, correct
// LSN order, decremented term) and Open must fail.
func TestOpenRejectsTermRegressionInLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-0000000000000001.seg")
	var buf []byte
	buf = append(buf, segMagic...)
	buf = binary.BigEndian.AppendUint64(buf, 1)
	terms := []uint64{3, 2} // regression
	for i, term := range terms {
		payload := binary.AppendUvarint(nil, uint64(i+1))
		payload = binary.AppendUvarint(payload, term)
		payload = append(payload, graph.EncodeDelta(delta(i))...)
		var frame [frameSize]byte
		binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
		buf = append(append(buf, frame[:]...), payload...)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if err == nil {
		t.Fatal("term regression inside a segment accepted")
	}
	if !strings.Contains(err.Error(), "regresses") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

// TestOpenRefusesOtherSegmentFormats: a segment whose magic is not the
// current format's — the term-less v1 layout (same header shape, version
// digit 1, no term varint in its payloads) or anything else — is refused
// at Open by name, never misread as current-format records.
func TestOpenRefusesOtherSegmentFormats(t *testing.T) {
	v1 := segMagic[:len(segMagic)-1] + "1"
	for _, magic := range []string{v1, "NOTAWAL!"} {
		dir := t.TempDir()
		var buf []byte
		buf = append(buf, magic...)
		buf = binary.BigEndian.AppendUint64(buf, 1)
		payload := binary.AppendUvarint(nil, 1)
		payload = append(payload, graph.EncodeDelta(delta(0))...)
		var frame [frameSize]byte
		binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
		buf = append(append(buf, frame[:]...), payload...)
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, Options{})
		if err == nil || !strings.Contains(err.Error(), "unsupported format") {
			t.Fatalf("magic %q: Open err = %v, want unsupported format", magic, err)
		}
	}
}

// TestAppendRawBatchRules: the follower-local append path must demand
// contiguous LSNs and non-decreasing non-zero terms, and adopt a higher
// batch term durably.
func TestAppendRawBatchRules(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	enc := func(i int) []byte { return graph.EncodeDelta(delta(i)) }
	if err := w.AppendRawBatch([]RawRecord{
		{LSN: 1, Term: 1, Delta: enc(0)},
		{LSN: 2, Term: 2, Delta: enc(1)},
	}); err != nil {
		t.Fatal(err)
	}
	if got := w.Term(); got != 2 {
		t.Fatalf("batch term 2 not adopted: term = %d", got)
	}
	if got := w.DurableLSN(); got != 2 {
		t.Fatalf("AppendRawBatch returned before durability: durable = %d", got)
	}
	for _, bad := range [][]RawRecord{
		{{LSN: 5, Term: 2, Delta: enc(2)}},                                   // gap
		{{LSN: 3, Term: 0, Delta: enc(2)}},                                   // no term
		{{LSN: 3, Term: 1, Delta: enc(2)}},                                   // term regression
		{{LSN: 3, Term: 2, Delta: enc(2)}, {LSN: 3, Term: 2, Delta: enc(3)}}, // dup LSN in batch
	} {
		if err := w.AppendRawBatch(bad); err == nil {
			t.Fatalf("bad batch %+v accepted", bad)
		}
	}
	// The good path still works after rejections.
	if err := w.AppendRawBatch([]RawRecord{{LSN: 3, Term: 2, Delta: enc(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Term(); got != 2 {
		t.Fatalf("adopted term lost across reopen: %d", got)
	}
}
