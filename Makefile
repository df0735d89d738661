# Tier-1 verification plus the invariants this repo adds on top. `make
# ci` runs the same checks as the CI workflow's check, race and smokes
# jobs:
#   make ci  — lint (gofmt + vet + the semproxlint analyzer suite),
#              build, race-enabled tests, the
#              per-package coverage floors (learning core, serving layer,
#              public api + client, WAL, replica, load statistics),
#              vet + tests of the benchmark module (perfbench/), a
#              bounded fuzz smoke, a two-process replication
#              smoke (primary + follower on loopback), a routing smoke
#              (routed client failover across a primary kill), a
#              failover smoke (kill -9 the primary under a live write
#              stream: promotion, no lost acked writes, zombie fencing),
#              the edge proxy smoke (semproxy over real semproxd
#              processes: epoch-keyed cache flush + zero failed reads
#              across a primary kill), the observability smoke
#              (/metrics on real daemons with moving counters, one trace
#              ID across the proxy and backend request logs, pprof
#              answering), and the benchmark smoke (a short perfbench
#              run of each workload through the deployed edge -> replica
#              stack: every answer checked, no failed operation, client
#              and proxy request counts equal).
GO ?= go
COVER_FLOOR ?= 80

.PHONY: ci lint vet build test cover perfbench-check perfbench-smoke fuzz-smoke replication-smoke routing-smoke failover-smoke proxy-smoke obs-smoke

ci: lint build test cover perfbench-check fuzz-smoke replication-smoke routing-smoke failover-smoke proxy-smoke obs-smoke perfbench-smoke

# gofmt must be a no-op, vet must be clean, and the repo's own analyzer
# suite (cmd/semproxlint: rawpath, atomicwrite, metricname, envelope,
# ctxfirst, sleepwait — the invariants DESIGN.md used to state as prose)
# must report nothing. semproxlint builds from this repo, so unlike the
# external tools it can never be "not installed" — it always runs, even
# for contributors with nothing but the Go toolchain. staticcheck and
# govulncheck run when the host has them (the dev container may not);
# CI installs pinned versions and sets REQUIRE_STATICCHECK=1 /
# REQUIRE_GOVULNCHECK=1, turning each "not installed; skipped" branch
# into a hard failure — the lint job can never silently thin itself.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/semproxlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		elif [ -n "$${REQUIRE_STATICCHECK:-}" ]; then \
		echo "FAIL: REQUIRE_STATICCHECK set but staticcheck is not installed"; exit 1; \
		else echo "staticcheck not installed; skipped"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		elif [ -n "$${REQUIRE_GOVULNCHECK:-}" ]; then \
		echo "FAIL: REQUIRE_GOVULNCHECK set but govulncheck is not installed"; exit 1; \
		else echo "govulncheck not installed; skipped"; fi

vet:
	$(GO) vet ./...

# The benchmark (perfbench/) is a module of its own, so `go build ./...`
# never compiles it; this vets and tests it against the checkout, with
# perfbench/run.sh's offline module settings, so an API change in the
# packages it drives cannot silently break it.
perfbench-check:
	cd perfbench && export GOPROXY=off GOFLAGS=-mod=mod GOWORK=off && \
		$(GO) vet ./... && $(GO) test ./...

# Bounded per-commit fuzzing: every Fuzz* target runs its engine for a
# short budget (FUZZ_TIME, default 5s each) so corpora actually execute
# on every commit instead of only replaying as seed cases (see
# scripts/fuzz_smoke.sh; fails loudly if no targets are found).
fuzz-smoke:
	bash scripts/fuzz_smoke.sh

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Per-package statement-coverage floors. Entries are pkg:floor pairs; a
# bare pkg uses $(COVER_FLOOR). Floors are set to what each package
# honestly sustains today (wal's fault-injection error paths and
# replica's network-failure arms keep those two below the default), so
# any drop is a regression, not noise.
COVER_PKGS ?= internal/core internal/server api client \
	internal/wal:80 internal/replica:75 internal/loadstats:90 \
	internal/proxy:85 internal/obs:85 internal/lint:90
cover:
	@for entry in $(COVER_PKGS); do \
		pkg=$${entry%%:*}; floor=$${entry#*:}; \
		[ "$$floor" = "$$entry" ] && floor=$(COVER_FLOOR); \
		out=$$(mktemp); \
		$(GO) test -coverprofile=$$out ./$$pkg || exit 1; \
		pct=$$($(GO) tool cover -func=$$out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		rm -f $$out; \
		echo "$$pkg coverage: $$pct% (floor $$floor%)"; \
		awk -v p=$$pct -v f=$$floor 'BEGIN { exit (p + 0 < f + 0) }' \
			|| { echo "FAIL: $$pkg statement coverage $$pct% is below the $$floor% floor"; exit 1; }; \
	done

# Two-process replication smoke: durable primary + follower on loopback,
# live updates pushed through the typed client (semproxctl), follower
# must reach lag 0 and serve byte-identical query output, legacy aliases
# must match /v1 (see scripts/replication_smoke.sh).
replication-smoke:
	bash scripts/replication_smoke.sh

# Routed-serving smoke: primary + follower + the replica-aware routed
# client on loopback; routed reads must stay byte-identical across
# replicas and keep serving with zero failures after the primary is
# killed (see scripts/routing_smoke.sh).
routing-smoke:
	bash scripts/routing_smoke.sh

# Failover smoke: kill -9 a synchronous primary under a live routed
# write stream; a follower must win the promotion election and resume
# acking the same writer, every acked write must be on the promoted
# primary, and the revived zombie must be fenced — its stream refused,
# its synchronous acks never released (see scripts/failover_smoke.sh).
failover-smoke:
	bash scripts/failover_smoke.sh

# Edge proxy smoke: a real semproxy over real semproxd processes
# (primary + 2 followers on loopback). Repeat reads must go miss -> hit
# byte-identically, an update through the proxy must flush the cache
# under a bumped epoch, and a kill -9 of the primary under a live reader
# must lose zero reads (see scripts/proxy_smoke.sh).
proxy-smoke:
	bash scripts/proxy_smoke.sh

# Observability smoke: real semproxd + semproxy daemons on loopback;
# /metrics must expose the WAL fsync latency, replication lag,
# per-endpoint latency, and hedge/cache families with counters that MOVE
# under traffic, one caller-supplied trace ID must appear in both the
# proxy's and a backend's request logs, the -debug-addr pprof listener
# must answer, and semproxctl -metrics must fetch a prefix-filtered
# exposition (see scripts/obs_smoke.sh).
obs-smoke:
	bash scripts/obs_smoke.sh

# Benchmark smoke: a 2-second perfbench run of each workload. It stands
# up the deployed stack (primary + 2 followers behind the edge proxy),
# and a run exits 1 on a wrong answer, a failed operation, a
# client/proxy request-count mismatch or a phase whose generator fell
# off its schedule. The timings of so short a run are not a measurement;
# `bash perfbench/run.sh --workload W --seconds 40 --repeat 10` is.
perfbench-smoke:
	bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 2
	bash perfbench/run.sh --workload cold_batch --seed 1 --seconds 2
