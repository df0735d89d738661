package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanSegment feeds arbitrary bytes to the segment reader that
// recovery, replay and the replication feed all go through. It must
// never panic, and the prefix a tolerant scan keeps (what recovery
// truncates the active segment to) must itself scan strictly to the
// same end.
func FuzzScanSegment(f *testing.F) {
	dir := f.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := w.Append(delta(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.seg"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		first := uint64(1)
		if len(data) >= headerSize {
			first = binary.BigEndian.Uint64(data[len(segMagic):headerSize])
		}
		path := filepath.Join(t.TempDir(), "seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		scanSegment(path, first, true, nil) //nolint:errcheck // only panics matter in strict mode
		offset, last, err := scanSegment(path, first, false, nil)
		if err != nil {
			return
		}
		if err := os.WriteFile(path, data[:offset], 0o644); err != nil {
			t.Fatal(err)
		}
		if o2, l2, err := scanSegment(path, first, true, nil); err != nil || o2 != offset || l2 != last {
			t.Fatalf("tolerant scan kept %d bytes through LSN %d, strict rescan: %d bytes through LSN %d, err %v",
				offset, last, o2, l2, err)
		}
	})
}
