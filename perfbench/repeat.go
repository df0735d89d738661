package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchDef is the part of BENCHMARK.json the repeat mode reads.
type benchDef struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs the workload n times, each in a child process with its
// own seed (seed, seed+1, ...), and prints every metric's median,
// quartiles and quartile spread (as a share of the median) next to the
// bound BENCHMARK.json gives it. It returns the exit code: 1 if a run
// failed or a bounded metric spread wider than its bound.
func repeatRuns(w *workload, seed int64, seconds, trace, n int) int {
	bounds := map[string]float64{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var def benchDef
		if err := json.Unmarshal(raw, &def); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
			return 1
		}
		for _, m := range def.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	code := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output() // waits for the child to exit
		res, perr := lastResult(out)
		if err != nil || perr != nil || !res.Correct {
			fmt.Printf("# run %d (seed %d) failed: %v %v\n", i+1, s, err, perr)
			code = 1
			continue
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Printf("# run %d (seed %d) ok\n", i+1, s)
	}
	var names []string
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %12s %12s %12s %8s %6s\n", "metric ("+w.name+")", "q1", "median", "q3", "spread", "bound")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := (q3 - q1) / med
		b, bounded := bounds[name]
		mark := ""
		if bounded && !(spread <= b) {
			mark, code = " WIDE", 1
		}
		bs := "-"
		if bounded {
			bs = strconv.FormatFloat(b, 'g', 3, 64)
		}
		fmt.Printf("%-28s %12.4g %12.4g %12.4g %8.3f %6s %s%s\n", name, q1, med, q3, spread, bs, units[name], mark)
	}
	return code
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method) — the spread the benchmark's steadiness is judged by.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
