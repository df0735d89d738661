package main

import (
	"math/rand"
	"time"
)

// opKind is one operation type of a workload's mix.
type opKind uint8

const (
	opQuery opKind = iota
	opProximity
	opBatch
	opUpdate
	numOpKinds
)

var opNames = [numOpKinds]string{"query", "proximity", "batch", "update"}

func (k opKind) String() string { return opNames[k] }

// workload is one read mix over one dataset and engine configuration,
// followed by a write phase.
type workload struct {
	name, why string

	// Dataset and offline build.
	users     int
	maxNodes  int // mining metagraph size cap
	restarts  int // training restarts
	maxIters  int // training iterations per restart
	nExamples int // training triplets
	class     string

	// Reads.
	zipfS     float64 // anchor popularity: Zipf(s) when > 0, else uniform
	k         int
	batchSize int
	mix       [numOpKinds]float64 // read-type weights, summing to 1
	rate      float64             // fixed-rate phase arrivals per second

	// Writes: durable updates, each adding one user, and with writeEdges
	// an edge from it to an existing user, which re-matches the
	// metagraphs around the edge on all three engines.
	writeRate  float64
	writeEdges bool

	setupBuilds int // stacks built per run: setup_s is their median, and the last one serves the traffic

	// Shares of the measured seconds: the fixed-rate read phase, the
	// saturation phase, and the fixed-rate write phase. Reads and writes
	// run apart, so every read of a phase is checked against one
	// reference epoch.
	fixedShare, satShare, writeShare float64
}

// workloads are the benchmark's traffic mixes, in BENCHMARK.json order.
var workloads = []*workload{
	{
		name: "hot_reads",
		why:  "Zipf-hot single reads that fit the proxy cache, then edge updates that re-match on three engines and flush the cache",
		// The loadgen stack's mining and training settings.
		users: 200, maxNodes: 3, restarts: 1, maxIters: 60, nExamples: 100,
		class: "college", zipfS: 1.2, k: 10,
		mix:       [numOpKinds]float64{opQuery: 0.8, opProximity: 0.2},
		rate:      600,
		writeRate: 10, writeEdges: true,
		setupBuilds: 5,
		fixedShare:  0.5, satShare: 0.2, writeShare: 0.3,
	},
	{
		name: "cold_batch",
		why:  "uniform 16-anchor batches over 2000 users that never repeat, so the cache is bypassed and every read ranks on a backend engine",
		// The semproxd defaults: MaxNodes 4, 3 restarts x 400 iterations
		// on 200 examples. Batches of 16 rather than 64 anchors: a
		// 64-anchor batch runs ~10ms, long enough that most of them
		// catch the host's millisecond-long CPU steal, which moved the
		// median by up to 40% between runs.
		users: 2000, maxNodes: 4, restarts: 3, maxIters: 400, nExamples: 200,
		class: "college", k: 10, batchSize: 16,
		mix:  [numOpKinds]float64{opBatch: 1},
		rate: 100,
		// An edge re-matches for ~0.1s per engine at this size; node-only
		// updates keep the write phase to the WAL, streaming and flushes.
		writeRate:   200,
		setupBuilds: 3,
		fixedShare:  0.6, satShare: 0.2, writeShare: 0.2,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// op is one scheduled operation. Every random choice is drawn when the
// op is generated, so a schedule is a pure function of its seed.
type op struct {
	kind  opKind
	at    time.Duration // arrival offset from the phase start (open loop)
	a, b  int32         // anchor indices (b: proximity partner)
	batch []int32       // batch anchor indices
	seq   int           // update number within the phase
	bare  bool          // update: add the node without an edge
}

// stream draws a workload's operations from one seed.
type stream struct {
	w     *workload
	rng   *rand.Rand
	zipf  *rand.Zipf
	names int
}

// newStream starts the op stream of workload w over names anchors. The
// seed, phase and lane (sender index, or 0) select independent streams.
func newStream(w *workload, seed int64, phase, lane, names int) *stream {
	s := &stream{w: w, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*7919 + int64(lane))), names: names}
	if w.zipfS > 0 {
		s.zipf = rand.NewZipf(s.rng, w.zipfS, 1, uint64(names-1))
	}
	return s
}

func (s *stream) anchor() int32 {
	if s.zipf != nil {
		return int32(s.zipf.Uint64())
	}
	return int32(s.rng.Intn(s.names))
}

// next draws the next read.
func (s *stream) next() op {
	pick := s.rng.Float64()
	kind := opKind(0)
	for ; kind < opBatch; kind++ {
		if pick < s.w.mix[kind] {
			break
		}
		pick -= s.w.mix[kind]
	}
	o := op{kind: kind, a: s.anchor()}
	switch kind {
	case opProximity:
		o.b = s.anchor()
	case opBatch:
		o.batch = make([]int32, s.w.batchSize)
		o.batch[0] = o.a
		for i := 1; i < len(o.batch); i++ {
			o.batch[i] = s.anchor()
		}
	}
	return o
}

// schedule is an open-loop read phase of n operations arriving as a
// Poisson stream at the workload's rate, a pure function of (workload,
// seed, phase, names).
func schedule(w *workload, seed int64, phase, names, n int) []op {
	s := newStream(w, seed, phase, 0, names)
	gaps := rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*7919 + 17))
	ops := make([]op, n)
	var at float64
	for i := range ops {
		at += gaps.ExpFloat64() / w.rate
		ops[i] = s.next()
		ops[i].at = seconds(at)
	}
	return ops
}

// writeSchedule is a write phase of n updates at an even cadence of the
// workload's write rate, each linking its new user to a uniformly drawn
// one when the workload writes edges. Poisson writes would cluster, and
// the few clusters among a phase's writes would set its latency.
func writeSchedule(w *workload, seed int64, phase, names, n int) []op {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*7919))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opUpdate, at: seconds(float64(i+1) / w.writeRate), a: int32(rng.Intn(names)), seq: i + 1, bare: !w.writeEdges}
	}
	return ops
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Phase identifiers: they seed independent streams and name update nodes.
const (
	phaseWarm = iota
	phaseFixed
	phaseSat
	phaseWrite
	phaseBase
	phaseTraced
)
