package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{200, 95, 190, true},   // rank 190, ten beyond
		{200, 50, 100, true},   // rank 100
		{241, 95, 229, true},   // the serve rung: rank ⌈228.95⌉, twelve beyond
		{199, 95, 0, false},    // rank 190, nine beyond
		{200, 99, 0, false},    // rank 198, two beyond
		{1000, 99, 990, true},  // rank 990, ten beyond
		{20, 50, 10, true},     // the smallest sample a median may use
		{19, 50, 0, false},     // rank 10, nine beyond
		{0, 50, 0, false},      // no sample at all
		{10, 0.001, 0, false},  // rank 1, nine beyond
		{11, 0.001, 1, true},   // rank 1, ten beyond
		{300, 100, 0, false},   // the maximum leaves nothing beyond it
		{1443, 95, 1371, true}, // three stream replays: rank ⌈1370.85⌉
	} {
		xs := ramp(c.n)
		orig := slices.Clone(xs)
		got, ok := percentile(xs, c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(n=%d, p%g) = %v, %t; want %v, %t", c.n, c.p, got, ok, c.want, c.ok)
		}
		if !slices.Equal(xs, orig) {
			t.Errorf("percentile(n=%d) reordered its input", c.n)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("empty median = %v, want NaN", got)
	}
}

func TestMaxRateLadder(t *testing.T) {
	pass := func(rate float64) rungResult {
		return rungResult{Rate: rate, AckP99Ms: 10, AckOK: true, Lag: 5 * time.Millisecond}
	}
	slowAck := func(rate float64) rungResult {
		r := pass(rate)
		r.AckP99Ms = ackLimitMs + 1
		return r
	}
	backlog := func(rate float64) rungResult {
		r := pass(rate)
		r.Lag = lagLimit + time.Millisecond
		return r
	}
	unsupported := func(rate float64) rungResult {
		r := pass(rate)
		r.AckOK = false
		return r
	}
	atLimit := func(rate float64) rungResult {
		return rungResult{Rate: rate, AckP99Ms: ackLimitMs, AckOK: true, Lag: lagLimit}
	}
	for _, c := range []struct {
		name  string
		rungs []rungResult
		want  float64
	}{
		{"all sustained", []rungResult{pass(1000), pass(2000), pass(4000)}, 4000},
		{"interior", []rungResult{pass(1000), slowAck(2000), slowAck(4000)}, 1000},
		{"backlog fails a rung", []rungResult{pass(1000), pass(2000), backlog(4000)}, 2000},
		{"lowest fails", []rungResult{slowAck(1000), pass(2000)}, 0},
		{"a pass above a failure is not capacity", []rungResult{pass(1000), slowAck(2000), pass(4000)}, 1000},
		{"unsupported p99 cannot pass", []rungResult{unsupported(1000)}, 0},
		{"limits are inclusive", []rungResult{atLimit(1000)}, 1000},
		{"order of the input is irrelevant", []rungResult{slowAck(4000), pass(1000), pass(2000)}, 2000},
		{"empty ladder", nil, 0},
	} {
		if got := maxRate(c.rungs); got != c.want {
			t.Errorf("%s: maxRate = %v, want %v", c.name, got, c.want)
		}
	}
}
