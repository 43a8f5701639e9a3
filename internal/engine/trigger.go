package engine

import "time"

// Trigger is an instant-firing policy. The engine itself never fires an
// instant spontaneously — it has no clock authority and no goroutines —
// so a trigger expresses policy in two halves the front-end executes:
// FireOnPending is consulted synchronously after every applied event
// (Applied.FireNow), and TickEvery tells a real-time front-end how often
// to fire on wall time (zero: never; Engine.Replay ignores it and fires
// on its Grid).
type Trigger interface {
	// FireOnPending reports whether an instant should fire now, given
	// the number of events applied since the last instant.
	FireOnPending(pending int) bool
	// TickEvery returns the wall-time firing period for real-time
	// front-ends, or 0 for purely event-count-driven policies.
	TickEvery() time.Duration
}

// TickTrigger fires on a fixed wall-time period and never on queue
// depth — the serving analogue of a replay's fixed instant Grid.
type TickTrigger struct {
	// Every is the firing period.
	Every time.Duration
}

// FireOnPending always reports false: a tick trigger is time-driven.
func (TickTrigger) FireOnPending(int) bool { return false }

// TickEvery returns the configured period.
func (t TickTrigger) TickEvery() time.Duration { return t.Every }

// BatchTrigger fires as soon as N events have accumulated since the
// last instant, with an optional wall-time fallback so a trickle of
// arrivals below the threshold still gets assigned.
type BatchTrigger struct {
	// N is the batch-size threshold.
	N int
	// Fallback is the maximum wall time between instants regardless of
	// queue depth; 0 disables the fallback.
	Fallback time.Duration
}

// FireOnPending reports whether the batch threshold is reached.
func (b BatchTrigger) FireOnPending(pending int) bool {
	return b.N > 0 && pending >= b.N
}

// TickEvery returns the wall-time fallback period.
func (b BatchTrigger) TickEvery() time.Duration { return b.Fallback }

// ManualTrigger never fires on its own: instants happen only when the
// caller explicitly requests one (a replay's Grid, a test, or
// dita-serve's /instant endpoint).
type ManualTrigger struct{}

// FireOnPending always reports false.
func (ManualTrigger) FireOnPending(int) bool { return false }

// TickEvery returns 0: no wall-time firing.
func (ManualTrigger) TickEvery() time.Duration { return 0 }
