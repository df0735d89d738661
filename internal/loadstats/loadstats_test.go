package loadstats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// oracleQuantile is the reference definition the histogram approximates:
// the ceil(q*n)-th smallest value of the sorted sample.
func oracleQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// checkAgainstOracle asserts the histogram error contract on one sample:
// for every probed q, oracle <= Quantile(q) <= oracle*(1+2^-subBits), and
// min/max/sum/count are exact.
func checkAgainstOracle(t *testing.T, name string, values []int64) {
	t.Helper()
	h := New()
	var sum int64
	for _, v := range values {
		h.Record(v)
		if v < 0 {
			v = 0
		}
		sum += v
	}
	sorted := make([]int64, len(values))
	for i, v := range values {
		if v < 0 {
			v = 0
		}
		sorted[i] = v
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	if h.Count() != uint64(len(values)) {
		t.Fatalf("%s: count = %d, want %d", name, h.Count(), len(values))
	}
	if h.Min() != sorted[0] || h.Max() != sorted[len(sorted)-1] {
		t.Fatalf("%s: min/max = %d/%d, want %d/%d", name, h.Min(), h.Max(), sorted[0], sorted[len(sorted)-1])
	}
	if h.Sum() != sum {
		t.Fatalf("%s: sum = %d, want %d", name, h.Sum(), sum)
	}
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 1} {
		want := oracleQuantile(sorted, q)
		got := h.Quantile(q)
		if got < want {
			t.Fatalf("%s: Quantile(%v) = %d understates oracle %d", name, q, got, want)
		}
		limit := want + want>>subBits
		if limit < want { // near MaxInt64 the slack itself overflows
			limit = math.MaxInt64
		}
		if got > limit {
			t.Fatalf("%s: Quantile(%v) = %d exceeds oracle %d by more than 1/%d (limit %d)",
				name, q, got, want, subCount, limit)
		}
	}
}

func TestQuantileMatchesOracleAcrossDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func(n int) []int64{
		"uniform_small": func(n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				out[i] = rng.Int63n(64) // the exact region
			}
			return out
		},
		"uniform_wide": func(n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				out[i] = rng.Int63n(int64(10 * time.Second))
			}
			return out
		},
		"exponential_latency": func(n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				out[i] = int64(rng.ExpFloat64() * float64(2*time.Millisecond))
			}
			return out
		},
		"heavy_duplicates": func(n int) []int64 {
			out := make([]int64, n)
			vals := []int64{0, 1, 500, int64(time.Millisecond), int64(time.Second)}
			for i := range out {
				out[i] = vals[rng.Intn(len(vals))]
			}
			return out
		},
		"bimodal_tail": func(n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				out[i] = int64(rng.ExpFloat64() * float64(200*time.Microsecond))
				if rng.Float64() < 0.01 { // 1% stalls
					out[i] = int64(time.Second) + rng.Int63n(int64(time.Second))
				}
			}
			return out
		},
		"huge_values": func(n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				out[i] = math.MaxInt64 - rng.Int63n(1<<40)
			}
			return out
		},
	}
	for name, gen := range dists {
		for _, n := range []int{1, 2, 7, 100, 5000} {
			checkAgainstOracle(t, name, gen(n))
		}
	}
}

func TestRecordClampsNegative(t *testing.T) {
	h := New()
	h.Record(-5)
	h.Record(10)
	if h.Min() != 0 || h.Max() != 10 || h.Sum() != 10 {
		t.Fatalf("negative clamp broken: min=%d max=%d sum=%d", h.Min(), h.Max(), h.Sum())
	}
	checkAgainstOracle(t, "negatives", []int64{-1, -100, 0, 5})
}

func TestEmptyHist(t *testing.T) {
	h := New()
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	for _, q := range []float64{0, 0.5, 1} {
		if h.Quantile(q) != 0 {
			t.Fatalf("empty Quantile(%v) = %d", q, h.Quantile(q))
		}
	}
	s := h.Summarize()
	if s.Count != 0 || s.P99Ms != 0 || s.MaxMs != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestQuantileExtremesExact(t *testing.T) {
	h := New()
	values := []int64{3, 99999999, 12345, 77}
	for _, v := range values {
		h.Record(v)
	}
	if got := h.Quantile(1); got != 99999999 {
		t.Fatalf("p100 = %d, want the exact max", got)
	}
	if got := h.Quantile(0); got < 3 || got > 3+3>>subBits {
		t.Fatalf("p0 = %d, want the min's bucket", got)
	}
}

// randHist builds a histogram of n random latency-shaped values.
func randHist(rng *rand.Rand, n int) (*Hist, []int64) {
	h := New()
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(rng.ExpFloat64() * float64(time.Millisecond))
		h.Record(values[i])
	}
	return h, values
}

func TestMergeEqualsRecordingEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a, av := randHist(rng, rng.Intn(2000))
		b, bv := randHist(rng, rng.Intn(2000))
		whole := New()
		for _, v := range append(append([]int64{}, av...), bv...) {
			whole.Record(v)
		}
		a.Merge(b)
		if !reflect.DeepEqual(a, whole) {
			t.Fatalf("trial %d: merge(a,b) differs from recording a∪b directly", trial)
		}
	}
}

func TestMergeAssociativeAndCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		mk := func() (*Hist, *Hist) { // two independent copies of one sample
			x, vals := randHist(rng, rng.Intn(1000))
			y := New()
			for _, v := range vals {
				y.Record(v)
			}
			return x, y
		}
		a1, a2 := mk()
		b1, b2 := mk()
		c1, c2 := mk()

		// (a+b)+c
		a1.Merge(b1)
		a1.Merge(c1)
		// a+(b+c)
		b2.Merge(c2)
		a2.Merge(b2)
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("trial %d: merge is not associative", trial)
		}

		// commutativity: a+b == b+a
		x1, x2 := mk()
		y1, y2 := mk()
		x1.Merge(y1)
		y2.Merge(x2)
		if !reflect.DeepEqual(x1, y2) {
			t.Fatalf("trial %d: merge is not commutative", trial)
		}
	}
}

func TestMergeEmptyAndNil(t *testing.T) {
	h, _ := randHist(rand.New(rand.NewSource(3)), 100)
	before := New()
	before.Merge(h) // copy
	h.Merge(New())
	h.Merge(nil)
	if !reflect.DeepEqual(h, before) {
		t.Fatal("merging empty/nil changed the histogram")
	}
	empty := New()
	empty.Merge(h)
	if !reflect.DeepEqual(empty, before) {
		t.Fatal("merging into empty lost values")
	}
}

func TestSummaryMonotonic(t *testing.T) {
	h, _ := randHist(rand.New(rand.NewSource(5)), 10000)
	s := h.Summarize()
	if !(s.P50Ms <= s.P90Ms && s.P90Ms <= s.P99Ms && s.P99Ms <= s.P999Ms && s.P999Ms <= s.MaxMs) {
		t.Fatalf("percentiles not monotonic: %+v", s)
	}
}

func TestRecordDuration(t *testing.T) {
	h := New()
	h.RecordDuration(3 * time.Millisecond)
	if h.Sum() != (3 * time.Millisecond).Nanoseconds() {
		t.Fatalf("sum = %d", h.Sum())
	}
}

// TestBucketBoundariesRoundTrip pins the bucket layout: every bucket's
// reported upper bound must map back to the same bucket, and boundaries
// must be monotone.
func TestBucketBoundariesRoundTrip(t *testing.T) {
	prev := int64(-1)
	for idx := 0; idx < numBuckets; idx++ {
		up := bucketMax(idx)
		if up < 0 { // octave shift overflowed past int64 range; layout ends here
			break
		}
		if up <= prev {
			t.Fatalf("bucket %d upper bound %d not monotone (prev %d)", idx, up, prev)
		}
		if got := bucketOf(up); got != idx {
			t.Fatalf("bucketMax(%d) = %d maps back to bucket %d", idx, up, got)
		}
		prev = up
	}
}
