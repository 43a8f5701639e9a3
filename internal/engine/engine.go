// Package engine is the streaming assignment engine of the platform,
// following the paper's protocol: assignment runs at time instances, a
// worker stays online until assigned, and an unassigned task remains
// available until it expires (s.p + s.ϕ). Deterministic replay
// (Engine.Replay over a Grid, as in dita-sim -stream) and a long-lived
// serving front-end (cmd/dita-serve) run the same loop against the same
// carry-over state.
//
// The engine applies an explicit event stream — WorkerArrive,
// WorkerDepart, TaskArrive, TaskExpire — to the pools backing a
// core.Session, and fires assignment instants (InstantFire) that read
// the pools in place, run the online phase through the session caches,
// solve the assignment and retire the matched pairs. Entities keep
// platform-stable identities for their whole lifetime, which is the
// contract the influence session's per-entity cache keys rely on. The
// feasible pairs are scanned afresh every instant (tiled, on the
// engine's worker pool): nothing spatial is carried across instants.
//
// Determinism: the engine core never reads the wall clock or any other
// ambient state. Simulation time arrives on the events themselves
// (Event.At, task publish times), and latency measurement goes through
// an injected monotonic Clock — nil for a clockless engine whose
// recorded latencies are simply zero. Two engines fed the same event
// stream produce bit-identical results at any Parallelism setting, the
// property the replay-vs-serve CI smoke diffs byte for byte.
//
// Concurrency: an Engine is single-threaded by design (the session
// caches it drives are not safe for concurrent use). Front-ends that
// ingest events from concurrent connections must serialize Apply/Fire
// calls per engine; cmd/dita-serve holds one engine (and one mutex) per
// region.
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"dita/internal/assign"
	"dita/internal/core"
	"dita/internal/geo"
	"dita/internal/influence"
	"dita/internal/model"
)

// Clock is the engine's injected time source, used only to measure
// per-instant latency (InstantResult.Prepare, PairMaint): a monotonic
// reading, typically time.Since of a fixed process-start instant.
// Durations are formed by subtracting two readings, so the zero point is
// arbitrary. A nil Clock disables latency measurement.
type Clock func() time.Duration

// WorkerArrival is the payload of a WorkerArrive event: a worker joining
// the platform. At is the arrival time in hours — Grid.Events uses it
// to order admissions against the instant grid; the engine itself
// stores only the worker.
type WorkerArrival struct {
	User   model.WorkerID
	Loc    geo.Point
	Radius float64
	At     float64
}

// TaskArrival is the payload of a TaskArrive event: a task published on
// the platform at Publish, expiring at Publish+Valid.
type TaskArrival struct {
	Loc        geo.Point
	Publish    float64
	Valid      float64
	Categories []model.CategoryID
	Venue      model.VenueID
}

// EventKind tags the engine's event union.
type EventKind uint8

const (
	// WorkerArrive admits Event.Worker to the pool and assigns it the
	// next stable platform id.
	WorkerArrive EventKind = iota + 1
	// WorkerDepart removes the worker with platform id Event.WorkerID
	// (went offline without being assigned).
	WorkerDepart
	// TaskArrive publishes Event.Task and assigns it the next stable id.
	TaskArrive
	// TaskExpire withdraws the task with platform id Event.TaskID before
	// its deadline (cancelled by its requester). Deadline expiry needs no
	// event: every InstantFire sweeps overdue tasks first.
	TaskExpire
	// InstantFire runs one assignment instant at time Event.At.
	InstantFire
)

// String names the kind for logs and errors.
func (k EventKind) String() string {
	switch k {
	case WorkerArrive:
		return "WorkerArrive"
	case WorkerDepart:
		return "WorkerDepart"
	case TaskArrive:
		return "TaskArrive"
	case TaskExpire:
		return "TaskExpire"
	case InstantFire:
		return "InstantFire"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one element of the engine's input stream. Only the fields of
// the tagged kind are read.
type Event struct {
	Kind EventKind
	// At is the event's simulation time in hours; required for
	// InstantFire, informational otherwise.
	At float64
	// Worker is the WorkerArrive payload.
	Worker WorkerArrival
	// Task is the TaskArrive payload.
	Task TaskArrival
	// WorkerID names the departing worker of a WorkerDepart.
	WorkerID model.WorkerID
	// TaskID names the withdrawn task of a TaskExpire.
	TaskID model.TaskID
}

// Config parameterizes an engine. The zero Components means the full
// influence model.
type Config struct {
	// Algorithm used at every instant.
	Algorithm assign.Algorithm
	// Components is the influence mask (influence.All when zero).
	Components influence.Components
	// Seed feeds the influence session; per-task fold-in streams are
	// derived from it and the task's stable identity.
	Seed uint64
	// Parallelism bounds the worker pool for fresh per-entity influence
	// state, the tiled feasibility scan and the component-decomposed
	// solve (<= 0 means all cores). Results are bit-identical at any
	// setting.
	Parallelism int
	// Clock measures per-instant latency; nil records zero latencies.
	Clock Clock
	// Batch is the event-count firing threshold: after an applied
	// arrival/departure, Applied.FireNow reports whether at least Batch
	// events are pending since the last instant; a refused arrival or
	// departure (ErrInvalidArrival, ErrUnknownWorker, ErrUnknownTask)
	// does not count. 0 never volunteers an instant, leaving firing
	// entirely to the caller (Replay's mode). Wall-time firing belongs
	// to the front-end, which owns the clock.
	Batch int
}

// Totals are the engine's cumulative counters since construction.
type Totals struct {
	// Events counts applied arrival/departure/withdrawal events
	// (InstantFire is counted by Instants).
	Events int `json:"events"`
	// Instants counts fired assignment instants.
	Instants int `json:"instants"`
	// Assigned counts matched worker-task pairs.
	Assigned int `json:"assigned"`
	// Expired counts tasks dropped by the deadline sweep.
	Expired int `json:"expired"`
	// Cancelled counts tasks withdrawn by explicit TaskExpire events.
	Cancelled int `json:"cancelled"`
	// Departed counts workers removed by explicit WorkerDepart events.
	Departed int `json:"departed"`
}

// AssignedPair is one matched pair of an instant in platform-stable
// identities (where InstantResult.Pairs is positional into the pools at
// the instant): the task's and worker's lifetime platform ids, the worker's
// social-graph user, and the realized influence and travel. This is the
// form serving front-ends expose and the streaming assignment CSV
// records.
type AssignedPair struct {
	Task      model.TaskID   `json:"task"`
	Worker    model.WorkerID `json:"worker"`
	User      model.WorkerID `json:"user"`
	Influence float64        `json:"influence"`
	TravelKm  float64        `json:"travel_km"`
}

// InstantResult records one assignment instant.
type InstantResult struct {
	At            float64
	OnlineWorkers int
	OpenTasks     int
	// Prepare is the online-phase latency of the instant: the time spent
	// building the influence evaluator over the instant's feasible pairs
	// (cached-session hits make this collapse for carried-over entities).
	// On an instant with an empty pool side there are no pairs, and this
	// is the session's cache upkeep alone. Assignment time is in
	// Metrics.CPU, matching the paper's phase split. Zero on a clockless
	// engine.
	Prepare time.Duration
	// WilEntries counts the willingness entries (Equation 2 values) the
	// instant computed; cached entries are not counted, so the engine's
	// carry-over session reports at most what a fresh session would for
	// the same instant. Deterministic at any Parallelism.
	WilEntries int
	// PairMaint is the feasible-pair latency of the instant: the tiled
	// scan of the instant's workers×tasks feasibility, which returns at
	// once on an instant with an empty pool side. Excluded from
	// Metrics.CPU. Zero on a clockless engine.
	PairMaint time.Duration
	// Metrics are the solve's metrics; Metrics.CPU is the solve's
	// latency on the engine's Clock (zero on a clockless engine). An
	// instant with an empty pool side solves nothing and reports only
	// the algorithm and the pool sizes.
	Metrics core.Metrics
	// Tiles reports the instant's tiled-pipeline shape. Every busy
	// instant sets it: the scan's occupied tile count, plus the
	// feasibility graph's component stats when any pair is feasible.
	Tiles assign.TileStats
	// Expired counts tasks the instant's deadline sweep dropped.
	Expired int
	// Pairs are the instant's matched pairs, positional into the pools
	// as they stood at the instant (after its expiry sweep).
	Pairs []model.Assignment
	// Assigned are the same pairs in platform-stable identities.
	Assigned []AssignedPair
}

// Applied reports what an Apply did: the stable id minted for an
// arrival, the instant result of an InstantFire, and whether the
// configured batch threshold wants an instant fired now.
type Applied struct {
	// WorkerID is the platform id assigned to a WorkerArrive.
	WorkerID model.WorkerID
	// TaskID is the platform id assigned to a TaskArrive.
	TaskID model.TaskID
	// Instant is the result of an InstantFire, nil otherwise.
	Instant *InstantResult
	// FireNow reports that the Config.Batch threshold is reached: the
	// caller should fire an instant (the engine never fires on its own —
	// the caller supplies the instant time).
	FireNow bool
}

// ErrUnknownWorker and ErrUnknownTask report departure/withdrawal events
// naming a platform id that is not pooled (already assigned, expired,
// departed — or never issued). ErrInvalidArrival reports an arrival
// Apply, the one arrival gate, refuses: a worker whose user is not in
// the social graph or whose radius is not >= 0, or a task with a
// category outside the LDA vocabulary or a validity not > 0 (NaN fails
// both comparisons).
var (
	ErrUnknownWorker  = errors.New("engine: no such worker in the pool")
	ErrUnknownTask    = errors.New("engine: no such task in the pool")
	ErrInvalidArrival = errors.New("engine: invalid arrival")
)

// Engine is the carry-over state between instants: the live pools, the
// stable-id counters, and the incremental influence session the
// instants are served through.
type Engine struct {
	fw   *core.Framework
	cfg  Config
	sess *core.Session
	// workers and tasks are the pools. Ids are minted in arrival order
	// and every pool edit (append, the expiry sweep, compaction, retire)
	// keeps pool order, so both pools are always sorted by id.
	workers []model.Worker // online, not yet assigned; ID is the stable arrival id
	tasks   []model.Task   // published, unexpired, unassigned; ID stable since publication
	nextTID model.TaskID
	nextWID model.WorkerID
	// usedW/usedT are marks aligned with the pools (same length). Between
	// instants a set mark is a tombstone: the entity departed or was
	// withdrawn and leaves the pool at the next Fire. Fire also marks
	// expired tasks and, in retire, matched pairs; every compaction
	// clears the marks it drops.
	usedW, usedT []bool
	// deadW/deadT count the tombstones currently set.
	deadW, deadT int
	// pending counts events applied since the last instant — what
	// Config.Batch is compared against.
	pending int
	totals  Totals
}

// New returns an empty engine bound to a trained framework.
func New(fw *core.Framework, cfg Config) (*Engine, error) {
	if fw == nil {
		return nil, fmt.Errorf("engine: nil framework")
	}
	if cfg.Components == 0 {
		cfg.Components = influence.All
	}
	return &Engine{fw: fw, cfg: cfg, sess: fw.PrepareSession(cfg.Components, cfg.Seed, cfg.Parallelism)}, nil
}

// Apply applies one event. Arrival events mint and return the entity's
// stable platform id, or fail with ErrInvalidArrival (pools untouched)
// when the engine refuses them; departure events fail
// with ErrUnknownWorker / ErrUnknownTask when the id is not pooled;
// InstantFire runs the instant and returns its result.
func (e *Engine) Apply(ev Event) (Applied, error) {
	switch ev.Kind {
	case WorkerArrive:
		a := ev.Worker
		if n := e.fw.Graph().N(); a.User < 0 || int64(a.User) >= int64(n) {
			return Applied{}, fmt.Errorf("%w: user %d not in the %d-user social graph", ErrInvalidArrival, a.User, n)
		}
		if !(a.Radius >= 0) {
			return Applied{}, fmt.Errorf("%w: worker radius %g is not >= 0", ErrInvalidArrival, a.Radius)
		}
		id := e.nextWID
		e.workers = append(e.workers, model.Worker{
			ID: id, User: a.User, Loc: a.Loc, Radius: a.Radius,
		})
		e.usedW = append(e.usedW, false)
		e.nextWID++
		e.eventApplied()
		return Applied{WorkerID: id, FireNow: e.fireNow()}, nil
	case TaskArrive:
		a := ev.Task
		if !(a.Valid > 0) {
			return Applied{}, fmt.Errorf("%w: task validity %g is not > 0", ErrInvalidArrival, a.Valid)
		}
		for _, c := range a.Categories {
			if v := e.fw.LDA().Vocab(); c < 0 || int64(c) >= int64(v) {
				return Applied{}, fmt.Errorf("%w: category %d outside the %d-category vocabulary", ErrInvalidArrival, c, v)
			}
		}
		id := e.nextTID
		e.tasks = append(e.tasks, model.Task{
			ID: id, Loc: a.Loc, Publish: a.Publish,
			Valid: a.Valid, Categories: a.Categories, Venue: a.Venue,
		})
		e.usedT = append(e.usedT, false)
		e.nextTID++
		e.eventApplied()
		return Applied{TaskID: id, FireNow: e.fireNow()}, nil
	case WorkerDepart:
		if !e.removeWorker(ev.WorkerID) {
			return Applied{}, fmt.Errorf("%w: worker %d", ErrUnknownWorker, ev.WorkerID)
		}
		e.totals.Departed++
		e.eventApplied()
		return Applied{FireNow: e.fireNow()}, nil
	case TaskExpire:
		if !e.removeTask(ev.TaskID) {
			return Applied{}, fmt.Errorf("%w: task %d", ErrUnknownTask, ev.TaskID)
		}
		e.totals.Cancelled++
		e.eventApplied()
		return Applied{FireNow: e.fireNow()}, nil
	case InstantFire:
		ir := e.Fire(ev.At)
		return Applied{Instant: &ir}, nil
	}
	return Applied{}, fmt.Errorf("engine: unknown event kind %v", ev.Kind)
}

func (e *Engine) eventApplied() {
	e.pending++
	e.totals.Events++
}

func (e *Engine) fireNow() bool {
	return e.cfg.Batch > 0 && e.pending >= e.cfg.Batch
}

// removeWorker tombstones the pooled worker with the given stable id,
// reporting whether it was pooled and live. The pool is sorted by id, so
// the lookup is a binary search, and the worker leaves the pool at the
// next Fire without shifting it now: a dense stream departs tens of
// thousands of workers from a pool of tens of thousands.
func (e *Engine) removeWorker(id model.WorkerID) bool {
	i, ok := slices.BinarySearchFunc(e.workers, id, func(w model.Worker, id model.WorkerID) int {
		return cmp.Compare(w.ID, id)
	})
	if !ok || e.usedW[i] {
		return false
	}
	e.usedW[i] = true
	e.deadW++
	return true
}

// removeTask tombstones the pooled task with the given stable id, as
// removeWorker does for workers.
func (e *Engine) removeTask(id model.TaskID) bool {
	i, ok := slices.BinarySearchFunc(e.tasks, id, func(t model.Task, id model.TaskID) int {
		return cmp.Compare(t.ID, id)
	})
	if !ok || e.usedT[i] {
		return false
	}
	e.usedT[i] = true
	e.deadT++
	return true
}

// clock reads the injected monotonic clock; a clockless engine reads a
// constant, so every recorded latency is zero.
func (e *Engine) clock() time.Duration {
	if e.cfg.Clock == nil {
		return 0
	}
	return e.cfg.Clock()
}

// Fire runs one assignment instant at simulation time now: sweep overdue
// tasks, scan the feasible pairs, prepare the influence evaluator over
// exactly those pairs through the session, solve, and retire the matched
// pairs. An instant with an empty pool side takes the same path: it
// scans no pair and solves nothing, so preparing is pure cache upkeep —
// admitting arrivals ahead of the next busy instant and evicting
// departures — timed into Prepare as a busy instant's would be.
func (e *Engine) Fire(now float64) InstantResult {
	e.pending = 0
	e.totals.Instants++

	// Expire stale tasks, then drop them with the withdrawn ones. The
	// sweep runs before the scan so an instant never offers a task
	// that is already past its deadline. A withdrawn task is skipped
	// before its deadline is checked: it was counted as Cancelled, never
	// as Expired.
	expired := 0
	for i, t := range e.tasks {
		if !e.usedT[i] && t.Expiry() < now {
			e.usedT[i] = true
			expired++
		}
	}
	e.tasks, e.usedT = compact(e.tasks, e.usedT)
	e.deadT = 0
	e.totals.Expired += expired
	if e.deadW > 0 {
		e.workers, e.usedW = compact(e.workers, e.usedW)
		e.deadW = 0
	}

	// The instance aliases the pools: nothing edits them before retire,
	// which runs after the last read of inst, and no result refers to
	// it. Position i of the instance is position i of the pool, the
	// mapping stablePairs and retire rely on.
	inst := &model.Instance{Now: now, Workers: e.workers, Tasks: e.tasks}
	t0 := e.clock()
	pairs, tiles := assign.TiledFeasiblePairs(inst, e.fw.Speed(), e.cfg.Parallelism)
	t1 := e.clock()
	ev := e.sess.PreparePairs(inst, pairs)
	t2 := e.clock()
	set, m, ts := e.fw.AssignPreparedPairsTiled(inst, ev, e.cfg.Algorithm, pairs, e.cfg.Parallelism)
	m.CPU = e.clock() - t2
	ts.Tiles = tiles
	ir := InstantResult{
		At: now, OnlineWorkers: len(e.workers), OpenTasks: len(e.tasks),
		Prepare: t2 - t1, WilEntries: e.sess.WilEntries(), PairMaint: t1 - t0,
		Metrics: m, Tiles: ts,
		Expired: expired, Pairs: set.Pairs, Assigned: stablePairs(inst, set),
	}
	e.totals.Assigned += set.Len()
	e.retire(set)
	return ir
}

// stablePairs translates the instant's positional assignment into
// platform-stable identities using the instant's instance.
func stablePairs(inst *model.Instance, set *model.AssignmentSet) []AssignedPair {
	if set.Len() == 0 {
		return nil
	}
	out := make([]AssignedPair, set.Len())
	for i, pr := range set.Pairs {
		w := inst.Workers[pr.Worker]
		t := inst.Tasks[pr.Task]
		out[i] = AssignedPair{
			Task: t.ID, Worker: w.ID, User: w.User,
			Influence: set.Influence[i], TravelKm: set.TravelKm[i],
		}
	}
	return out
}

// retire removes assigned workers and tasks from the pool (workers go
// offline once assigned, tasks are served once). Pairs index the
// instant's instance, whose order is pool order. It runs with no
// tombstone set, marks the matched entities and compacts, so the hot
// loop allocates nothing once the pools reach steady size.
func (e *Engine) retire(set *model.AssignmentSet) {
	for _, pr := range set.Pairs {
		e.usedW[pr.Worker] = true
		e.usedT[pr.Task] = true
	}
	e.workers, e.usedW = compact(e.workers, e.usedW)
	e.tasks, e.usedT = compact(e.tasks, e.usedT)
}

// compact drops the marked entries of pool in place, preserving order,
// and returns the kept pool with its marks, all cleared and truncated to
// the same length.
func compact[T any](pool []T, marks []bool) ([]T, []bool) {
	kept := pool[:0]
	for i, x := range pool {
		if marks[i] {
			marks[i] = false
			continue
		}
		kept = append(kept, x)
	}
	return kept, marks[:len(kept)]
}

// Session returns the engine's influence session, which carries the
// online phase's per-entity state across instants.
func (e *Engine) Session() *core.Session { return e.sess }

// Online returns the number of currently online (unassigned) workers.
func (e *Engine) Online() int { return len(e.workers) - e.deadW }

// Open returns the number of currently open (unassigned, unexpired)
// tasks.
func (e *Engine) Open() int { return len(e.tasks) - e.deadT }

// Pending returns the number of events applied since the last instant —
// the queue depth Config.Batch fires on.
func (e *Engine) Pending() int { return e.pending }

// Totals returns the engine's cumulative counters.
func (e *Engine) Totals() Totals { return e.totals }
