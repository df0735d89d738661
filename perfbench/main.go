// Command perfbench is the semprox benchmark. It stands the deployed
// topology up in one process over loopback — a trained engine behind a
// WAL-attached primary, two followers bootstrapped by snapshot, and an
// edge proxy (4096-entry cache, hedging on) over a client.Router — and
// drives one workload through a client.Client pointed at the proxy:
//
//	go run . --workload hot_reads --seed 1 --seconds 10 --trace 0
//
// A run times the set-up, an open-loop Poisson read phase at the
// workload's fixed rate (latency counted from the scheduled send), a
// closed-loop saturation phase and an evenly paced write phase, checks
// every answer, and prints the end-to-end metrics. --trace 1 instead
// times each layer's boundary calls and prints the per-layer table.
// --repeat N runs the workload N times in child processes and prints
// each metric's median and quartile spread against its BENCHMARK.json
// bound. The last line of standard output is always the result as one
// JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload to run: hot_reads or cold_batch")
		seed    = flag.Int64("seed", 1, "seed of the operation schedule")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
		repeat  = flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each metric's median and quartile spread against its BENCHMARK.json bound")
	)
	flag.Parse()
	w := workloadByName(*wlName)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(w, *seed, *seconds, *trace, *repeat))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(ctx, w, *seed, time.Duration(*seconds)*time.Second, dir)
	} else {
		res, err = measuredRun(ctx, w, *seed, time.Duration(*seconds)*time.Second, dir)
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res) // a result of floats and strings always marshals
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// stamp prints what the numbers were measured on and with.
func stamp(w *workload, seed int64, st *stack, counts map[string]int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	var kinds []string
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var ops []string
	for _, k := range kinds {
		ops = append(ops, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	fmt.Printf("# workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s commit=%s nodes=%d edges=%d metagraphs=%d ops[%s]\n",
		w.name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit,
		st.nodes, st.edges, st.eng.NumMetagraphs(), strings.Join(ops, " "))
}
