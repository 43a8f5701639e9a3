package main

import (
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// clk is the benchmark's one time source: a monotonic reading since
// process start. Every latency and wall time is the difference of two
// readings, and the same function is injected as the engine clock in the
// traced pass, so spans and engine-reported phases share a time base.
var clk = newClock()

func newClock() func() time.Duration {
	start := time.Now()                                      //dita:wallclock
	return func() time.Duration { return time.Since(start) } //dita:wallclock
}

// settle collects the garbage of whatever ran before and returns it to
// the OS, so the next timed repetition starts from the live heap alone:
// the previous one's garbage neither triggers a collection inside it
// nor adds to the process's peak RSS.
func settle() { debug.FreeOSMemory() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// minTail is the fewest samples a reported percentile may leave beyond
// it. A p95 over 100 samples would rest on five values and move with any
// one of them; with at least ten beyond, one outlier shifts it by a rank.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, and false when the sample leaves fewer than minTail values beyond
// it. xs is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < minTail {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], true
}

// median returns the middle value of xs (the mean of the middle two for
// an even count); NaN for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// Limits of a sustainable serve rate: arrival acks stay under ackLimitMs
// at p99, and the generator ends no more than lagLimit behind schedule
// (a growing backlog means the server cannot keep up with the rate).
const (
	ackLimitMs = 50
	lagLimit   = time.Second
)

// rungResult is the outcome of one open-loop rate of the serve ladder.
type rungResult struct {
	Rate float64 // requests per second
	// AckP99Ms is the p99 of arrival-POST latency from due time; AckOK is
	// false when the sample is too small to support a p99.
	AckP99Ms float64
	AckOK    bool
	// Lag is how far behind schedule the last response arrived.
	Lag time.Duration
}

func (r rungResult) sustained() bool {
	return r.AckOK && r.AckP99Ms <= ackLimitMs && r.Lag <= lagLimit
}

// maxRate is the highest ladder rate that is sustained together with
// every lower rate, or 0 when the lowest rate already fails. A pass above
// a failed rung is noise, not capacity, so the walk stops at the first
// failure.
func maxRate(rungs []rungResult) float64 {
	s := slices.Clone(rungs)
	sort.Slice(s, func(i, j int) bool { return s[i].Rate < s[j].Rate })
	best := 0.0
	for _, r := range s {
		if !r.sustained() {
			break
		}
		best = r.Rate
	}
	return best
}
