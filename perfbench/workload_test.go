package main

import (
	"reflect"
	"testing"
)

// The op schedule is a pure function of the seed: the same seed gives
// the identical schedule, a different seed a different one.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := schedule(w, 7, phaseFixed, 200, 500)
		b := schedule(w, 7, phaseFixed, 200, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", w.name)
		}
		if c := schedule(w, 8, phaseFixed, 200, 500); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		if !reflect.DeepEqual(writeSchedule(w, 7, phaseWrite, 200, 100), writeSchedule(w, 7, phaseWrite, 200, 100)) {
			t.Errorf("%s: seed 7 gave two different write schedules", w.name)
		}
		s1, s2 := newStream(w, 7, phaseSat, 1, 200), newStream(w, 7, phaseSat, 1, 200)
		for i := 0; i < 200; i++ {
			if x, y := s1.next(), s2.next(); !reflect.DeepEqual(x, y) {
				t.Fatalf("%s: closed-loop stream diverged at op %d: %+v vs %+v", w.name, i, x, y)
			}
		}
	}
}

// Each workload's schedule carries its declared op mix and arrives at
// its declared rate.
func TestScheduleMatchesTheMix(t *testing.T) {
	for _, w := range workloads {
		ops := schedule(w, 3, phaseFixed, 200, 20000)
		var counts [numOpKinds]float64
		for _, o := range ops {
			counts[o.kind]++
			if o.a < 0 || o.a >= 200 || o.b < 0 || o.b >= 200 {
				t.Fatalf("%s: anchor out of range: %+v", w.name, o)
			}
		}
		for k := opKind(0); k < numOpKinds; k++ {
			if got := counts[k] / float64(len(ops)); got < w.mix[k]-0.02 || got > w.mix[k]+0.02 {
				t.Errorf("%s: %s share %.3f, declared %.3f", w.name, k, got, w.mix[k])
			}
		}
		rate := float64(len(ops)) / ops[len(ops)-1].at.Seconds()
		if rate < w.rate*0.95 || rate > w.rate*1.05 {
			t.Errorf("%s: arrivals at %.1f/s, declared %.1f/s", w.name, rate, w.rate)
		}
	}
}

// The repeat mode's spread is judged like statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
