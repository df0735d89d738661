package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/graph"
)

// Reading the log: recovery scans (Open), crash-recovery replay
// (Replay), and the replication feed (Since/WaitSince). All reads go
// through scanSegment, which validates framing, CRC, LSN contiguity,
// term ordering and delta decoding, so every consumer sees the same
// hardened view of the bytes: a record is either fully valid or the scan
// stops (tolerant mode, for the final segment's torn tail) or fails
// (strict mode, for sealed segments).

// errTornTail marks a record that ends mid-frame or fails its checksum —
// the shape a crash mid-write leaves behind.
var errTornTail = errors.New("torn record")

// scanSegment reads one segment file. It returns the byte offset just
// past the last valid record and that record's LSN (0 if the segment
// holds none). A header whose magic is not segMagic is refused. In
// strict mode any invalid byte is an error; otherwise the scan stops at
// the first torn record (the caller truncates there). A term regressing within the
// segment is an error in BOTH modes: a crash tears bytes, it cannot
// decrement a varint behind a valid CRC — that shape means mixed or
// tampered logs, never a recoverable tail. fn, when non-nil, is called
// for every valid record; a false return stops the scan early
// (offset/last then describe the scanned prefix).
func scanSegment(path string, declaredFirst uint64, strict bool, fn func(lsn, term uint64, body []byte) bool) (offset int64, last uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)

	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return 0, 0, fmt.Errorf("wal: segment %s: short header: %w", path, err)
	}
	if magic := string(hdr[:len(segMagic)]); magic != segMagic {
		return 0, 0, fmt.Errorf("wal: segment %s: unsupported format %q (this build reads only %q)", path, magic, segMagic)
	}
	if got := binary.BigEndian.Uint64(hdr[len(segMagic):]); got != declaredFirst {
		return 0, 0, fmt.Errorf("wal: segment %s: header LSN %d does not match name", path, got)
	}

	offset = int64(headerSize)
	next := declaredFirst
	var prevTerm uint64
	var payload []byte
	for {
		lsn, term, body, n, err := readRecord(br, st.Size()-offset, &payload)
		if err == io.EOF {
			return offset, last, nil
		}
		if err != nil {
			if !strict && errors.Is(err, errTornTail) {
				return offset, last, nil
			}
			return 0, 0, fmt.Errorf("wal: segment %s: offset %d: %w", path, offset, err)
		}
		if lsn != next {
			if !strict {
				return offset, last, nil
			}
			return 0, 0, fmt.Errorf("wal: segment %s: offset %d: LSN %d, want %d", path, offset, lsn, next)
		}
		if term < prevTerm {
			return 0, 0, fmt.Errorf("wal: segment %s: offset %d: LSN %d term %d regresses from %d", path, offset, lsn, term, prevTerm)
		}
		if fn != nil && !fn(lsn, term, body) {
			return offset + n, lsn, nil
		}
		offset += n
		last = lsn
		next = lsn + 1
		prevTerm = term
	}
}

// readRecord reads one framed record, reusing *payload as scratch. It
// returns io.EOF at a clean record boundary and errTornTail for a
// truncated or checksum-failing record. left is the number of segment
// bytes from the frame on: a length claiming more than that is torn,
// so a garbage length never allocates beyond the file's own size. The
// returned body aliases the scratch buffer and is only valid until the
// next call.
func readRecord(br *bufio.Reader, left int64, payload *[]byte) (lsn, term uint64, body []byte, size int64, err error) {
	var frame [frameSize]byte
	if _, err := io.ReadFull(br, frame[:]); err != nil {
		if err == io.EOF {
			return 0, 0, nil, 0, io.EOF
		}
		return 0, 0, nil, 0, fmt.Errorf("%w: short frame", errTornTail)
	}
	length := binary.BigEndian.Uint32(frame[0:4])
	if length == 0 || length > MaxRecordBytes {
		return 0, 0, nil, 0, fmt.Errorf("%w: implausible record length %d", errTornTail, length)
	}
	if int64(length) > left-frameSize {
		return 0, 0, nil, 0, fmt.Errorf("%w: record length %d exceeds the %d bytes left in the segment", errTornTail, length, left-frameSize)
	}
	if cap(*payload) < int(length) {
		*payload = make([]byte, length)
	}
	buf := (*payload)[:length]
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, 0, nil, 0, fmt.Errorf("%w: short payload", errTornTail)
	}
	if got, want := crc32.Checksum(buf, castagnoli), binary.BigEndian.Uint32(frame[4:8]); got != want {
		return 0, 0, nil, 0, fmt.Errorf("%w: checksum mismatch", errTornTail)
	}
	lsn, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, nil, 0, fmt.Errorf("%w: bad LSN varint", errTornTail)
	}
	buf = buf[n:]
	term, tn := binary.Uvarint(buf)
	if tn <= 0 || term == 0 {
		return 0, 0, nil, 0, fmt.Errorf("%w: bad term varint", errTornTail)
	}
	return lsn, term, buf[tn:], frameSize + int64(length), nil
}

// Replay streams every durable record with LSN > afterLSN, in order,
// decoding each delta. It only sees records that were fsynced before the
// call, so replay after a crash and the replication feed read the same
// prefix a recovery would. fn returning an error stops the replay.
func (w *WAL) Replay(afterLSN uint64, fn func(r Record) error) error {
	w.mu.Lock()
	durable := w.durable
	w.mu.Unlock()
	return w.replayRaw(afterLSN, durable, func(lsn, term uint64, body []byte) error {
		d, derr := graph.DecodeDelta(body)
		if derr != nil {
			return fmt.Errorf("wal: record %d: %w", lsn, derr)
		}
		return fn(Record{LSN: lsn, Term: term, Delta: d})
	})
}

// replayRaw scans the segment files for records in (afterLSN, durable],
// in order. The body passed to fn aliases scan scratch — copy to retain.
func (w *WAL) replayRaw(afterLSN, durable uint64, fn func(lsn, term uint64, body []byte) error) error {
	w.mu.Lock()
	segs := append([]segment(nil), w.segments...)
	w.mu.Unlock()

	var ferr error
	for i, s := range segs {
		if s.last == 0 || s.last <= afterLSN {
			continue
		}
		// Sealed segments are immutable and were validated at Open, so any
		// invalid byte found now is on-disk corruption that must surface
		// as an error — tolerant mode would silently truncate the read
		// mid-segment. Only the active (final) segment scans tolerantly: a
		// concurrent group commit may have written a partial record past
		// the durable bound, which the lsn > durable check below stops at
		// anyway.
		strict := i < len(segs)-1
		_, last, err := scanSegment(s.path, s.first, strict, func(lsn, term uint64, body []byte) bool {
			if lsn <= afterLSN {
				return true
			}
			if lsn > durable {
				return false
			}
			if err := fn(lsn, term, body); err != nil {
				ferr = err
				return false
			}
			return true
		})
		if ferr != nil {
			return ferr
		}
		if err != nil {
			return err
		}
		// Tolerance on the active segment exists for the torn bytes a
		// crash or in-flight group commit leaves past the durable bound —
		// never for corruption below it. A tolerant scan that stopped
		// before the durable high-watermark silently read a short prefix:
		// surfacing no error here would hand callers (replay, the
		// replication feed) a truncated view they would trust — a follower
		// would wedge below the corrupt record with lag > 0 and no alarm
		// anywhere. The bound is the min of the segment's recorded last
		// and the caller's durable LSN: s.last alone can run ahead of the
		// durable value the caller captured (appends commit between the
		// two lock acquisitions), and the scan legitimately stops at the
		// caller's bound.
		bound := s.last
		if durable < bound {
			bound = durable
		}
		if !strict && last < bound {
			return fmt.Errorf("wal: segment %s: valid records end at LSN %d but LSN %d is durable — corruption below the durable bound", s.path, last, bound)
		}
	}
	return nil
}

// RawRecord is one durable record with its delta still in the encoded
// wire form (graph.EncodeDelta) — what the WAL stores and what the
// replication feed ships, so serving a follower never decodes and
// re-encodes. Term is the promotion epoch the record was written under.
// The Delta bytes may alias internal storage: treat as read-only.
type RawRecord struct {
	LSN   uint64
	Term  uint64
	Delta []byte
}

// SinceRaw returns up to max raw records with LSN > afterLSN (all of
// them when max <= 0), plus the durable LSN at read time so a caller can
// tell "no records" apart from "caught up". maxBytes (<= 0 = unbounded)
// additionally stops the batch before the cumulative delta payload
// exceeds it — the first record is always returned whatever its size, so
// a bounded reader still makes progress. Enforcing the bound here, not
// in the caller, matters for the disk path: a lagging reader would
// otherwise pay the scan and copy of up to max full records per poll
// only to have the caller discard everything past the budget, re-reading
// the same suffix on every re-poll. The hot case — a follower within
// tailMaxRecords of the head — is served from the in-memory tail without
// touching disk; older positions fall back to scanning the segment
// files.
func (w *WAL) SinceRaw(afterLSN uint64, max, maxBytes int) ([]RawRecord, uint64, error) {
	w.mu.Lock()
	durable := w.durable
	if len(w.tail) > 0 && w.tail[0].lsn <= afterLSN+1 {
		var out []RawRecord
		total := 0
		for _, tr := range w.tail {
			if tr.lsn <= afterLSN {
				continue
			}
			if tr.lsn > durable {
				break
			}
			if maxBytes > 0 && len(out) > 0 && total+len(tr.delta) > maxBytes {
				break
			}
			total += len(tr.delta)
			out = append(out, RawRecord{LSN: tr.lsn, Term: tr.term, Delta: tr.delta})
			if max > 0 && len(out) >= max {
				break
			}
		}
		w.mu.Unlock()
		return out, durable, nil
	}
	w.mu.Unlock()

	var out []RawRecord
	total := 0
	err := w.replayRaw(afterLSN, durable, func(lsn, term uint64, body []byte) error {
		if maxBytes > 0 && len(out) > 0 && total+len(body) > maxBytes {
			return errStopReplay
		}
		total += len(body)
		out = append(out, RawRecord{LSN: lsn, Term: term, Delta: append([]byte(nil), body...)})
		if max > 0 && len(out) >= max {
			return errStopReplay
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopReplay) {
		return nil, 0, err
	}
	return out, durable, nil
}

// Since is SinceRaw with the deltas decoded and no byte bound.
func (w *WAL) Since(afterLSN uint64, max int) ([]Record, uint64, error) {
	raw, durable, err := w.SinceRaw(afterLSN, max, 0)
	if err != nil {
		return nil, 0, err
	}
	out := make([]Record, len(raw))
	for i, r := range raw {
		d, err := graph.DecodeDelta(r.Delta)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: record %d: %w", r.LSN, err)
		}
		out[i] = Record{LSN: r.LSN, Term: r.Term, Delta: d}
	}
	return out, durable, nil
}

// TermAt returns the term of the durable record at lsn, or ok=false
// when the log does not hold it (never appended, not yet durable, or
// truncated away). The fencing history check uses it to compare a
// follower's view of a given LSN with the log's. The hot case — lsn
// within the in-memory tail — is O(1); older positions scan segments.
func (w *WAL) TermAt(lsn uint64) (term uint64, ok bool) {
	w.mu.Lock()
	if lsn == 0 || lsn > w.durable {
		w.mu.Unlock()
		return 0, false
	}
	if len(w.tail) > 0 && w.tail[0].lsn <= lsn {
		// The tail is contiguous by construction: direct index.
		tr := w.tail[lsn-w.tail[0].lsn]
		w.mu.Unlock()
		return tr.term, true
	}
	durable := w.durable
	w.mu.Unlock()

	err := w.replayRaw(lsn-1, durable, func(l, t uint64, body []byte) error {
		if l == lsn {
			term, ok = t, true
		}
		return errStopReplay
	})
	if err != nil && !errors.Is(err, errStopReplay) {
		return 0, false
	}
	return term, ok
}

// errStopReplay is the internal early-exit sentinel of bounded reads.
var errStopReplay = errors.New("wal: stop replay")

// WaitSince blocks until the log holds at least one durable record with
// LSN > afterLSN (returning true) or the context ends (returning false).
// It is the long-poll primitive behind GET /replicate/since.
func (w *WAL) WaitSince(ctx context.Context, afterLSN uint64) bool {
	for {
		w.mu.Lock()
		if w.durable > afterLSN {
			w.mu.Unlock()
			return true
		}
		if w.closed || w.err != nil {
			w.mu.Unlock()
			return false
		}
		watch := w.watch
		w.mu.Unlock()
		select {
		case <-ctx.Done():
			return false
		case <-watch:
		}
	}
}
