// Package simulate runs a streaming spatial-crowdsourcing platform on
// top of a trained DITA framework: multiple assignment instants per day,
// where — per the paper's protocol — a worker stays online until
// assigned a task, and an unassigned task remains available until it
// expires (s.p + s.ϕ).
//
// The instant loop itself lives in internal/engine; this package is its
// deterministic replay driver. Platform.Run translates time-ordered
// arrival streams into engine events — admissions up to each grid
// instant, then the instant itself — against an integer instant grid, so
// a whole simulated horizon replays through exactly the machinery
// cmd/dita-serve runs live. Replay is the batch form and serving the
// streaming form of the same engine: fed the same event sequence they
// produce bit-identical results, which is what the serve CI smoke leg
// diffs byte for byte.
//
// Entities keep platform-stable identities for their whole lifetime
// (assigned by the engine at admission, in arrival order), so the
// influence session layer (core.Session) can cache per-entity state
// across instants instead of rebuilding the online phase from scratch
// each round.
package simulate

import (
	"fmt"
	"math"
	"time"

	"dita/internal/assign"
	"dita/internal/core"
	"dita/internal/engine"
	"dita/internal/influence"
)

// ArrivingWorker is a worker joining the platform at a given time. It is
// the engine's WorkerArrive payload; the alias keeps the replay driver's
// historical API.
type ArrivingWorker = engine.WorkerArrival

// ArrivingTask is a task published at a given time (the engine's
// TaskArrive payload).
type ArrivingTask = engine.TaskArrival

// Config drives a simulation run.
type Config struct {
	// Algorithm used at every instant.
	Algorithm assign.Algorithm
	// Components is the influence mask (influence.All for the full model).
	Components influence.Components
	// Step is the interval between assignment instants in hours.
	Step float64
	// Horizon is the simulated duration in hours, starting at Start.
	Start, Horizon float64
	// Seed feeds the influence session; per-task fold-in streams are
	// derived from it and the task's stable identity (randx.Mix), so no
	// per-instant seed exists to collide across instants.
	Seed uint64
	// Parallelism bounds the worker pool the online phase computes fresh
	// per-entity influence state on (<= 0 means all cores). Results are
	// bit-identical at any setting.
	Parallelism int
	// SessionCapacity bounds the influence session's per-entity caches
	// with deterministic FIFO eviction (0: unbounded). Memory-only;
	// results are bit-identical at any capacity. See
	// engine.Config.SessionCapacity.
	SessionCapacity int
}

// InstantResult records one assignment instant (see
// engine.InstantResult).
type InstantResult = engine.InstantResult

// Result aggregates a whole run.
type Result struct {
	Instants      []InstantResult
	TotalAssigned int
	// ExpiredTasks counts tasks that left the pool unserved.
	ExpiredTasks int
	// CompletionRate = assigned / (assigned + expired); 0 when no task
	// ever appeared.
	CompletionRate float64
}

// Platform replays arrival streams through the engine on a fixed instant
// grid; it is the engine's carry-over state plus the grid parameters.
type Platform struct {
	eng *engine.Engine
	cfg Config
}

// New returns an empty platform bound to a trained framework.
func New(fw *core.Framework, cfg Config) (*Platform, error) {
	if cfg.Step <= 0 {
		return nil, fmt.Errorf("simulate: non-positive step %v", cfg.Step)
	}
	if cfg.Horizon < 0 {
		return nil, fmt.Errorf("simulate: negative horizon %v", cfg.Horizon)
	}
	eng, err := engine.New(fw, engine.Config{
		Algorithm:       cfg.Algorithm,
		Components:      cfg.Components,
		Seed:            cfg.Seed,
		Parallelism:     cfg.Parallelism,
		SessionCapacity: cfg.SessionCapacity,
		Clock:           monotonicClock(),
	})
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	return &Platform{eng: eng, cfg: cfg}, nil
}

// monotonicClock builds the engine's latency clock from the process
// monotonic clock. The reading's zero point (the clock's creation) is
// arbitrary: the engine only ever subtracts two readings.
func monotonicClock() engine.Clock {
	start := time.Now()                                      //dita:wallclock
	return func() time.Duration { return time.Since(start) } //dita:wallclock
}

// Run replays the arrival streams (each ordered by time) through the
// engine and returns the aggregated result. Instants are indexed by
// integer: instant i happens at Start + i*Step, so long horizons do not
// accumulate floating-point drift, and the instant count is fixed up
// front as ⌊Horizon/Step⌋ (with an epsilon absorbing binary rounding):
// a Horizon that is an exact decimal multiple of Step — 2.4 over steps
// of 0.1, say — includes its final instant even though the accumulated
// product overshoots the horizon by an ulp.
//
// Per the streaming protocol, arrivals with At/Publish <= now are
// admitted before instant now fires (identities assigned at admission,
// in arrival order: workers then tasks), and the instant's expiry sweep
// runs inside the engine before the snapshot.
func (p *Platform) Run(workers []ArrivingWorker, tasks []ArrivingTask) (*Result, error) {
	res := &Result{}
	wi, ti := 0, 0
	count := int(math.Floor(p.cfg.Horizon/p.cfg.Step + 1e-9))
	for i := 0; i <= count; i++ {
		now := p.cfg.Start + float64(i)*p.cfg.Step
		for wi < len(workers) && workers[wi].At <= now {
			if _, err := p.eng.Apply(engine.Event{Kind: engine.WorkerArrive, At: now, Worker: workers[wi]}); err != nil {
				return nil, err
			}
			wi++
		}
		for ti < len(tasks) && tasks[ti].Publish <= now {
			if _, err := p.eng.Apply(engine.Event{Kind: engine.TaskArrive, At: now, Task: tasks[ti]}); err != nil {
				return nil, err
			}
			ti++
		}
		res.Instants = append(res.Instants, p.eng.Fire(now))
	}
	t := p.eng.Totals()
	res.TotalAssigned = t.Assigned
	res.ExpiredTasks = t.Expired
	// Tasks still open at the horizon that can never be served count as
	// neither assigned nor expired; only actual expiries count against
	// the completion rate.
	if total := res.TotalAssigned + res.ExpiredTasks; total > 0 {
		res.CompletionRate = float64(res.TotalAssigned) / float64(total)
	}
	return res, nil
}

// Engine exposes the platform's underlying streaming engine.
func (p *Platform) Engine() *engine.Engine { return p.eng }

// Session returns the platform's influence session (the engine's; see
// engine.Engine.Session).
func (p *Platform) Session() *core.Session { return p.eng.Session() }

// Online returns the number of currently online (unassigned) workers.
func (p *Platform) Online() int { return p.eng.Online() }

// Open returns the number of currently open (unassigned, unexpired)
// tasks.
func (p *Platform) Open() int { return p.eng.Open() }
