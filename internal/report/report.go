// Package report is where cmd/loadgen turns a report struct into a
// committed BENCH_*.json file (BENCH_load.json, BENCH_proxy.json):
// two-space-indented JSON with a trailing newline, written atomically
// (temp + fsync + rename via internal/atomicfile) so a failed run never
// leaves a partial trajectory point behind, with "-" as the conventional
// write-to-stdout-only path for smoke runs that must not touch committed
// files.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/atomicfile"
)

// Stdout is the path value meaning "print, do not write a file".
const Stdout = "-"

// Marshal renders a report in the committed BENCH_*.json shape:
// two-space indent, trailing newline.
func Marshal(report any) ([]byte, error) {
	js, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return append(js, '\n'), nil
}

// EmitJSON writes the report to path, staging through a temp file and
// renaming so a failed run never leaves a partial JSON behind. Path "-"
// prints to stdout instead; a real path also logs "wrote <path>" so runs
// show which trajectory files they touched.
func EmitJSON(path string, report any) error {
	return emit(os.Stdout, path, report)
}

// emit is EmitJSON with the stdout destination injected for tests.
func emit(stdout io.Writer, path string, report any) error {
	js, err := Marshal(report)
	if err != nil {
		return err
	}
	if path == Stdout {
		_, err := stdout.Write(js)
		return err
	}
	if err := atomicfile.Write(path, js); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// Load reads a previously emitted report back into out — the gate half of
// the trajectory: a fresh run is compared against the committed baseline.
func Load(path string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("report: %s: %w", path, err)
	}
	return nil
}
