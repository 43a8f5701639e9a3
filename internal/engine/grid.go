package engine

import (
	"fmt"
	"math"
)

// Grid is a fixed instant schedule: instants at Start + i*Step hours for
// i = 0..⌊Horizon/Step⌋. Instants are indexed by integer, so long
// horizons accumulate no floating-point drift, and the count is fixed up
// front with an epsilon absorbing binary rounding: a Horizon that is an
// exact decimal multiple of Step — 2.4 over steps of 0.1, say — keeps
// its final instant even though the product overshoots by an ulp.
type Grid struct {
	Start, Step, Horizon float64
}

// Events emits the replay of two time-ordered arrival streams on the
// grid: at each instant now, a WorkerArrive for every worker due
// (At <= now) and then a TaskArrive for every task due (Publish <= now),
// in stream order, then an InstantFire. Every event carries At = now.
// This order mints the engine's stable ids, so every front-end that
// replays a trace — in process or over HTTP — emits exactly these
// events. Events stops at the first error emit returns and returns it.
//
// A grid with a non-finite field, a non-positive Step, a negative
// Horizon or more instants than an int counts is rejected before any
// event is emitted.
func (g Grid) Events(ws []WorkerArrival, ts []TaskArrival, emit func(Event) error) error {
	// NaN fails every comparison, and a Horizon/Step that overflows to
	// +Inf fails the last one; float64(math.MaxInt) is 2^63, one past
	// the largest int.
	last := math.Floor(g.Horizon/g.Step + 1e-9)
	if math.IsNaN(g.Start) || math.IsInf(g.Start, 0) || math.IsInf(g.Step, 0) ||
		!(g.Step > 0) || !(g.Horizon >= 0) || !(last < float64(math.MaxInt)) {
		return fmt.Errorf("engine: invalid grid %+v (want finite fields, Step > 0, Horizon >= 0, Horizon/Step < 2^63)", g)
	}
	wi, ti := 0, 0
	for i := range int(last) + 1 {
		now := g.Start + float64(i)*g.Step
		for ; wi < len(ws) && ws[wi].At <= now; wi++ {
			if err := emit(Event{Kind: WorkerArrive, At: now, Worker: ws[wi]}); err != nil {
				return err
			}
		}
		for ; ti < len(ts) && ts[ti].Publish <= now; ti++ {
			if err := emit(Event{Kind: TaskArrive, At: now, Task: ts[ti]}); err != nil {
				return err
			}
		}
		if err := emit(Event{Kind: InstantFire, At: now}); err != nil {
			return err
		}
	}
	return nil
}

// Replay applies the grid's events for the two arrival streams (each
// ordered by time) and returns every instant's result; on an error, the
// results of the instants fired before it. Each instant's expiry sweep
// runs inside Fire, before its feasibility scan.
func (e *Engine) Replay(g Grid, ws []WorkerArrival, ts []TaskArrival) ([]InstantResult, error) {
	var out []InstantResult
	err := g.Events(ws, ts, func(ev Event) error {
		ap, err := e.Apply(ev)
		if ap.Instant != nil {
			out = append(out, *ap.Instant)
		}
		return err
	})
	return out, err
}

// CompletionRate is Assigned / (Assigned + Expired), or 0 when no task
// was assigned or expired. Tasks still open, and tasks withdrawn by
// TaskExpire, count neither way: only deadline expiries count against
// the rate.
func (t Totals) CompletionRate() float64 {
	if t.Assigned+t.Expired == 0 {
		return 0
	}
	return float64(t.Assigned) / float64(t.Assigned+t.Expired)
}
