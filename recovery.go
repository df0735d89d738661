package semprox

import (
	"fmt"

	"repro/internal/wal"
)

// Crash recovery. A write-ahead-logged deployment (semproxd -wal) makes
// every acknowledged update durable: the delta is validated, appended to
// the log, and applied at the LSN the log assigned, and the ack waits
// for the fsync (Engine.ApplyUpdateLogged). On a crash — no clean
// shutdown, overlays uncompacted, snapshot arbitrarily stale — recovery
// is: load the newest snapshot (LSN L), open the WAL
// (which heals any torn tail), and ReplayWAL the records with LSN > L.
// The recovered engine is byte-identical to one that never crashed
// (property-tested in recovery_test.go), because ApplyUpdateAt is
// deterministic and replay re-applies exactly the suffix the snapshot
// misses.

// ReplayWAL applies every logged record beyond the engine's current LSN,
// in order, and returns how many it applied. Records at or below the
// engine's LSN are already part of its state (the snapshot covered
// them) and are not counted.
//
// A primary validates every delta before logging it
// (Engine.ApplyUpdateLogged), so the log never holds a record the engine
// rejects. A rejected record therefore means the log and the snapshot
// disagree about the graph (most plausibly a -wal directory paired with
// the wrong snapshot, since byte-level corruption is already caught by
// the WAL's CRC framing) and aborts the replay.
//
// ReplayWAL fails up front on either misalignment between log and
// engine: a log missing records the engine needs (its first retained LSN
// is beyond engine LSN + 1 — the snapshot predates the log's truncation
// horizon), or a log that ends BEHIND the engine (a stale WAL directory
// paired with a newer snapshot) — serving in that state would assign
// future appends LSNs at or below the engine's.
func ReplayWAL(e *Engine, w *wal.WAL) (applied int, err error) {
	at := e.LSN()
	if first := w.FirstLSN(); first > at+1 {
		return 0, fmt.Errorf("semprox: wal starts at LSN %d but engine is at %d: snapshot predates log truncation", first, at)
	}
	if next := w.NextLSN(); next <= at {
		return 0, fmt.Errorf("semprox: wal ends at LSN %d but engine is at %d: stale log directory for this snapshot", next-1, at)
	}
	err = w.Replay(at, func(r wal.Record) error {
		if _, err := e.ApplyUpdateAt(r.Delta, r.LSN); err != nil {
			return fmt.Errorf("semprox: replay LSN %d: record rejected — the log and the snapshot disagree about the graph (mispaired -wal directory?): %w", r.LSN, err)
		}
		applied++
		return nil
	})
	return applied, err
}
