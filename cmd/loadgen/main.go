// Command loadgen is the open-loop load harness behind BENCH_load.json —
// the latency-percentile half of the perf trajectory, where closed-loop
// numbers (the `go test -bench` micro-benchmarks) are structurally blind:
// queueing, tail latency, and coordinated omission.
//
// It stands up the real serving stack (a durable primary plus streaming
// followers, reached through the public client.Router — or an external
// stack via -primary/-followers), then fires Poisson-arrival request
// streams at configured rates. Arrivals are OPEN LOOP: the generator
// never waits for a response before sending the next request, and every
// request's latency clock starts at its scheduled arrival time, so a
// server stall is charged with the queueing delay of everything scheduled
// behind it instead of quietly thinning the sample. Scenarios (request
// mixes, swept rates, SLOs) are declared in loadgen.toml; the sweep finds
// the max sustainable QPS under each scenario's p99 SLO.
//
// Modes:
//
//	loadgen                          # full sweep, rewrites BENCH_load.json
//	loadgen -mode smoke -out -       # short deterministic run, no files touched,
//	                                 # fails on any error / inconsistent percentiles
//	loadgen -mode gate  -out -       # short run at each scenario's gate rate,
//	                                 # compared against the committed BENCH_load.json:
//	                                 # fresh p99 > base p99 * gate-mult + gate-slack
//	                                 # fails the gate (and CI)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/report"
)

const (
	modeFull  = "full"
	modeSmoke = "smoke"
	modeGate  = "gate"
	modeProxy = "proxy"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		configPath = flag.String("config", "loadgen.toml", "scenario suite config")
		mode       = flag.String("mode", modeFull, "full (sweep every rate), smoke (gate rate, consistency checks), gate (gate rate, p99 regression check vs -baseline), or proxy (edge-tier hedge/cache A/B, writes BENCH_proxy.json)")
		out        = flag.String("out", "", "report output path ('-' for stdout only; default BENCH_load.json in full mode, '-' otherwise)")
		baseline   = flag.String("baseline", "BENCH_load.json", "committed baseline the gate compares against")
		gateMult   = flag.Float64("gate-mult", 3, "gate tolerance: fresh p99 may be up to this multiple of the baseline p99...")
		gateSlack  = flag.Duration("gate-slack", 25*time.Millisecond, "...plus this absolute slack (absorbs timer noise on near-zero baselines)")
		window     = flag.Duration("duration", 0, "override the per-rate measurement window (0 = config duration in full mode, mode default otherwise)")
		primaryURL = flag.String("primary", "", "fire at this external primary instead of self-hosting the stack")
		followers  = flag.String("followers", "", "comma-separated external follower base URLs (with -primary)")
		users      = flag.Int("users", 0, "override defaults.users (dataset size / external user-N name space)")
		seed       = flag.Int64("seed", 0, "override defaults.seed for the Poisson schedules")
	)
	flag.Parse()

	cfg, err := LoadConfig(*configPath)
	if err != nil {
		return err
	}
	if *users > 0 {
		cfg.Defaults.Users = *users
	}
	if *seed != 0 {
		cfg.Defaults.Seed = *seed
	}
	switch *mode {
	case modeFull, modeSmoke, modeGate, modeProxy:
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	if *out == "" {
		*out = report.Stdout
		switch *mode {
		case modeFull:
			*out = "BENCH_load.json"
		case modeProxy:
			*out = "BENCH_proxy.json"
		}
	}
	w := *window
	if w == 0 {
		switch *mode {
		case modeSmoke:
			w = 600 * time.Millisecond
		case modeGate:
			w = time.Second
		default:
			w = cfg.Defaults.Duration
		}
	}

	// In gate mode the baseline must load before the expensive part runs.
	var base *Report
	if *mode == modeGate {
		base = &Report{}
		if err := report.Load(*baseline, base); err != nil {
			return fmt.Errorf("gate: %w", err)
		}
		if len(base.Scenarios) == 0 {
			return fmt.Errorf("gate: baseline %s has no scenarios", *baseline)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Proxy mode runs its own A/B harness over its own proxy-fronted
	// targets and writes the edge-tier report.
	if *mode == modeProxy {
		return runProxyBench(ctx, cfg, *configPath, w, *out)
	}

	start := time.Now()
	var tgt *target
	if *primaryURL != "" {
		tgt, err = external(ctx, *primaryURL, *followers, cfg.Defaults)
	} else {
		tgt, err = selfHost(ctx, cfg.Defaults)
	}
	if err != nil {
		return err
	}
	defer tgt.close()
	fmt.Printf("target up in %.1fs: %s\n", time.Since(start).Seconds(), tgt.desc)

	rep := &Report{
		Benchmark:  "open_loop_load",
		Mode:       *mode,
		Config:     *configPath,
		Target:     tgt.desc,
		Arrivals:   fmt.Sprintf("poisson open-loop (seed %d), send-scheduled latency", cfg.Defaults.Seed),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC(),
	}
	for i := range cfg.Scenarios {
		res, err := runScenario(ctx, tgt, &cfg.Scenarios[i], cfg.Defaults, *mode, w)
		if err != nil {
			return err
		}
		rep.Scenarios = append(rep.Scenarios, res)
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}

	if err := report.EmitJSON(*out, rep); err != nil {
		return err
	}
	switch *mode {
	case modeSmoke:
		if err := checkSmoke(rep); err != nil {
			return err
		}
		fmt.Println("smoke OK: every scenario completed error-free with consistent percentiles")
	case modeGate:
		checks, err := compareGate(base, rep, *gateMult, *gateSlack)
		if err != nil {
			return err
		}
		failed := 0
		for _, c := range checks {
			verdict := "ok"
			if !c.OK {
				verdict = "REGRESSION"
				failed++
			}
			fmt.Printf("gate    %-12s rate=%-5d base_p99=%7.2fms fresh_p99=%7.2fms limit=%7.2fms %s\n",
				c.Scenario, c.RateQPS, c.BaseP99Ms, c.FreshP99Ms, c.LimitMs, verdict)
		}
		if failed > 0 {
			return fmt.Errorf("gate: %d/%d scenarios regressed past p99 tolerance (x%g + %v) vs %s",
				failed, len(checks), *gateMult, *gateSlack, *baseline)
		}
		fmt.Printf("gate OK: %d scenarios within p99 tolerance (x%g + %v) of %s\n",
			len(checks), *gateMult, *gateSlack, *baseline)
	default:
		for _, sc := range rep.Scenarios {
			fmt.Printf("load    %-12s max sustainable %d req/s under p99 <= %.0fms\n",
				sc.Name, sc.MaxSustainableQPS, sc.SLOP99Ms)
		}
	}
	return nil
}
