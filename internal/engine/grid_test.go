package engine_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dita/internal/assign"
	"dita/internal/core"
	"dita/internal/engine"
	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/paralleltest"
	"dita/internal/randx"
)

// replay runs the arrival streams through a fresh engine on the grid,
// with a real latency clock as dita-sim -stream runs it.
func replay(t *testing.T, fw *core.Framework, cfg engine.Config, g engine.Grid, ws []engine.WorkerArrival, ts []engine.TaskArrival) (replayRun, *engine.Engine) {
	t.Helper()
	cfg.Clock = monotonicClock()
	e, err := engine.New(fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	instants, err := e.Replay(g, ws, ts)
	if err != nil {
		t.Fatal(err)
	}
	return replayRun{instants, e.Totals()}, e
}

func TestGridValidation(t *testing.T) {
	fw, _ := testFramework(t)
	nan, inf := math.NaN(), math.Inf(1)
	for _, g := range []engine.Grid{
		{Step: 0},
		{Step: -1, Horizon: 1},
		{Step: 1, Horizon: -1},
		{Start: nan, Step: 1, Horizon: 1},
		{Step: nan, Horizon: 1},
		{Step: 1, Horizon: nan},
		{Start: -inf, Step: 1, Horizon: 1},
		{Step: inf, Horizon: 1},
		{Step: 1, Horizon: inf},
		{Step: 0.5, Horizon: 1e30},            // instant count overflows an int
		{Step: 1, Horizon: math.Ldexp(1, 63)}, // last index 2^63, one past the int range
		{Step: 5e-324, Horizon: 1},            // Horizon/Step is +Inf
	} {
		emitted := 0
		err := g.Events(nil, nil, func(engine.Event) error { emitted++; return nil })
		if err == nil || emitted != 0 {
			t.Errorf("grid %+v: err %v after %d events, want an error before any", g, err, emitted)
		}
		e, err := engine.New(fw, engine.Config{Algorithm: assign.IA})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := e.Replay(g, nil, nil); err == nil || res != nil || e.Totals().Instants != 0 {
			t.Errorf("grid %+v: Replay returned %d instants, err %v", g, len(res), err)
		}
	}
	// The smallest valid grid has one instant.
	n := 0
	if err := (engine.Grid{Start: 5, Step: 1}).Events(nil, nil, func(engine.Event) error { n++; return nil }); err != nil || n != 1 {
		t.Errorf("zero-horizon grid: %d events, err %v; want 1 instant", n, err)
	}
}

// TestGridEventsOrder pins the replay order that mints stable ids:
// per instant, due workers then due tasks in stream order, then the
// instant, every event stamped with the instant's time; an emit error
// stops the replay and is returned as is.
func TestGridEventsOrder(t *testing.T) {
	ws := []engine.WorkerArrival{{User: 1, At: 0.5}, {User: 2, At: 1}, {User: 3, At: 9}}
	ts := []engine.TaskArrival{{Venue: 1, Publish: 0}, {Venue: 2, Publish: 1.5}}
	var got []string
	err := engine.Grid{Start: 0, Step: 1, Horizon: 2}.Events(ws, ts, func(ev engine.Event) error {
		switch ev.Kind {
		case engine.WorkerArrive:
			got = append(got, fmt.Sprintf("%v%d@%g", ev.Kind, ev.Worker.User, ev.At))
		case engine.TaskArrive:
			got = append(got, fmt.Sprintf("%v%d@%g", ev.Kind, ev.Task.Venue, ev.At))
		default:
			got = append(got, fmt.Sprintf("%v@%g", ev.Kind, ev.At))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"TaskArrive1@0", "InstantFire@0",
		"WorkerArrive1@1", "WorkerArrive2@1", "InstantFire@1",
		"TaskArrive2@2", "InstantFire@2",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	stop := errors.New("stop")
	n := 0
	err = engine.Grid{Start: 0, Step: 1, Horizon: 2}.Events(ws, ts, func(ev engine.Event) error {
		n++
		if ev.Kind == engine.InstantFire {
			return stop
		}
		return nil
	})
	if err != stop || n != 2 {
		t.Fatalf("emit error: Events returned %v after %d events, want stop after 2", err, n)
	}
}

func TestRunAssignsAndRetires(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 40, 1)
	res, e := replay(t, fw, engine.Config{Algorithm: assign.IA, Seed: 1}, engine.Grid{Start: 120, Step: 2, Horizon: 14}, ws, ts)
	if res.Totals.Assigned == 0 {
		t.Fatal("streaming run assigned nothing")
	}
	if res.Totals.Assigned > 40 {
		t.Fatalf("assigned %d > 40 offered tasks", res.Totals.Assigned)
	}
	if len(res.Instants) == 0 {
		t.Fatal("no instants recorded")
	}
	// Completion accounting is consistent.
	if rate := res.Totals.CompletionRate(); rate < 0 || rate > 1 {
		t.Errorf("completion rate %v", rate)
	}
	// Workers go offline once assigned: online count at the end is the
	// arrivals minus total assigned (no worker re-enters).
	if got := e.Online(); got != len(ws)-res.Totals.Assigned {
		t.Errorf("online %d, want %d", got, len(ws)-res.Totals.Assigned)
	}
}

func TestTasksExpireUnserved(t *testing.T) {
	fw, _ := testFramework(t)
	// One task with no feasible worker ever: it must expire, not linger.
	tasks := []engine.TaskArrival{{Loc: geo.Point{X: 1, Y: 1}, Publish: 0, Valid: 2, Venue: 1}}
	res, e := replay(t, fw, engine.Config{Algorithm: assign.IA, Seed: 1}, engine.Grid{Start: 0, Step: 1, Horizon: 6}, nil, tasks)
	if res.Totals.Expired != 1 {
		t.Errorf("expired %d, want 1", res.Totals.Expired)
	}
	if res.Totals.Assigned != 0 || res.Totals.CompletionRate() != 0 {
		t.Errorf("assigned %d rate %v on an unservable stream", res.Totals.Assigned, res.Totals.CompletionRate())
	}
	if e.Open() != 0 {
		t.Errorf("expired task still open")
	}
}

func TestLaterArrivalsServedByLaterInstants(t *testing.T) {
	fw, data := testFramework(t)
	// A worker arriving at hour 126 cannot serve a task expiring at 124,
	// but can serve one expiring at 130.
	u := model.WorkerID(3)
	ws := []engine.WorkerArrival{{User: u, Loc: data.Homes[u], Radius: 1000, At: 126}}
	ts := []engine.TaskArrival{
		{Loc: data.Homes[u], Publish: 120, Valid: 4, Venue: 1},  // expires 124
		{Loc: data.Homes[u], Publish: 120, Valid: 10, Venue: 2}, // expires 130
	}
	res, _ := replay(t, fw, engine.Config{Algorithm: assign.MTA, Seed: 1}, engine.Grid{Start: 120, Step: 1, Horizon: 12}, ws, ts)
	if res.Totals.Assigned != 1 {
		t.Fatalf("assigned %d, want exactly 1", res.Totals.Assigned)
	}
	if res.Totals.Expired != 1 {
		t.Fatalf("expired %d, want 1", res.Totals.Expired)
	}
	if rate := res.Totals.CompletionRate(); rate != 0.5 {
		t.Errorf("completion rate %v, want 0.5", rate)
	}
}

func TestSmallerStepServesAtLeastAsWell(t *testing.T) {
	// Assigning more frequently can only help completion (tasks get
	// matched before expiring).
	fw, data := testFramework(t)
	ws, ts := streams(data, 30, 9)
	run := func(step float64) engine.Totals {
		res, _ := replay(t, fw, engine.Config{Algorithm: assign.IA, Seed: 2}, engine.Grid{Start: 120, Step: step, Horizon: 14}, ws, ts)
		return res.Totals
	}
	fine := run(1)
	coarse := run(7)
	if fine.Assigned < coarse.Assigned {
		t.Errorf("finer stepping assigned %d < coarse %d", fine.Assigned, coarse.Assigned)
	}
}

// TestTiledStreamingEquivalence is the streaming gate of the
// tiled pipeline: every instant scans feasibility through the spatial
// tiling, and the run must be bit-identical — assignments, metrics,
// completion accounting — at Parallelism 1, 2 and 8, while actually
// reporting a live tiling (tile counts on busy instants, component stats
// whenever a pair is feasible).
func TestTiledStreamingEquivalence(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 60, 29)
	run := func(par int) replayRun {
		res, _ := replay(t, fw, engine.Config{Algorithm: assign.DIA, Seed: 31, Parallelism: par},
			engine.Grid{Start: 120, Step: 1, Horizon: 18}, ws, ts)
		checkInstantShape(t, res.Instants, par)
		return replayRun{normalize(res.Instants), res.Totals}
	}
	want := run(1)
	if want.Totals.Assigned == 0 {
		t.Fatal("equivalence run assigned nothing; streams too sparse to gate anything")
	}
	for _, par := range paralleltest.WorkerCounts[1:] {
		if got := run(par); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: tiled run diverged from the sequential scan", par)
		}
	}
}

// TestRunParallelismInvariant registers the streaming loop with the
// shared determinism harness.
func TestRunParallelismInvariant(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 40, 3)
	paralleltest.Invariant(t, func(par int) any {
		res, _ := replay(t, fw, engine.Config{Algorithm: assign.EIA, Seed: 8, Parallelism: par},
			engine.Grid{Start: 120, Step: 2, Horizon: 14}, ws, ts)
		return replayRun{normalize(res.Instants), res.Totals}
	})
}

// TestLongHorizonDeterminismAndEviction runs several simulated days with
// staggered arrivals and short task lifetimes, so the pool churns
// through many carry-over generations: tasks expire unserved, workers
// linger across instants, and the session cache must keep evicting. The
// run must be deterministic run to run, the instant grid must not drift,
// and the cache must end bounded by the final pool.
func TestLongHorizonDeterminismAndEviction(t *testing.T) {
	fw, data := testFramework(t)
	rng := randx.New(13)
	var ws []engine.WorkerArrival
	var ts []engine.TaskArrival
	const days = 4
	for d := 0; d < days; d++ {
		base := 120.0 + float64(d)*24
		for i := 0; i < 25; i++ {
			u := model.WorkerID(rng.Intn(data.Params.NumUsers))
			ws = append(ws, engine.WorkerArrival{
				User: u, Loc: data.Homes[u], Radius: 25, At: base + rng.Float64()*20,
			})
			v := data.Venues[rng.Intn(len(data.Venues))]
			ts = append(ts, engine.TaskArrival{
				Loc: v.Loc, Publish: base + rng.Float64()*20, Valid: 1 + rng.Float64()*4,
				Categories: v.Categories, Venue: v.ID,
			})
		}
	}
	sortArrivals(ws, ts)
	run := func() (replayRun, *engine.Engine) {
		res, e := replay(t, fw, engine.Config{Algorithm: assign.IA, Seed: 21, Parallelism: 2},
			engine.Grid{Start: 120, Step: 1.5, Horizon: float64(days)*24 + 6}, ws, ts)
		return replayRun{normalize(res.Instants), res.Totals}, e
	}
	a, ea := run()
	b, _ := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("long-horizon run is not deterministic")
	}
	if a.Totals.Assigned == 0 || a.Totals.Expired == 0 {
		t.Fatalf("horizon covered no churn: %d assigned, %d expired — the test needs both",
			a.Totals.Assigned, a.Totals.Expired)
	}
	// The instant grid is an exact integer lattice: no float drift.
	for i, in := range a.Instants {
		if want := 120 + float64(i)*1.5; in.At != want {
			t.Fatalf("instant %d at %v, want exactly %v", i, in.At, want)
		}
	}
	// Carry-over eviction: the session cache cannot exceed the engine's
	// final live pool (every assigned or expired entity must be gone).
	sess := ea.Session().Influence()
	if sess.CachedTasks() > ea.Open() {
		t.Errorf("session caches %d tasks but only %d are open", sess.CachedTasks(), ea.Open())
	}
	if sess.CachedWorkers() > ea.Online() {
		t.Errorf("session caches %d workers but only %d are online", sess.CachedWorkers(), ea.Online())
	}
}

// TestHorizonExactMultipleKeepsFinalInstant is the regression gate for
// the instant-count rule: now = Start + i*Step accumulates ulp error, so
// a loop condition `now > end` would drop the final instant whenever
// Horizon is an exact decimal — but not binary — multiple of Step
// (0.1*24 = 2.4000000000000004 > 2.4). The instant count is fixed up
// front as ⌊Horizon/Step + ε⌋ + 1.
func TestHorizonExactMultipleKeepsFinalInstant(t *testing.T) {
	fw, _ := testFramework(t)
	cases := []struct {
		step, horizon float64
		want          int // ⌊horizon/step⌋ + 1 in exact arithmetic
	}{
		{0.1, 2.4, 25}, // drifts: 0.1*24 > 2.4 in float64
		{0.1, 0.3, 4},  // drifts: 0.1*3 > 0.3
		{0.2, 4.2, 22}, // no drift: control
		{0.3, 0.9, 4},  // no drift: control
		{2, 14, 8},     // integral grid: control
	}
	for _, c := range cases {
		res, _ := replay(t, fw, engine.Config{Algorithm: assign.IA, Seed: 1}, engine.Grid{Start: 0, Step: c.step, Horizon: c.horizon}, nil, nil)
		if got := len(res.Instants); got != c.want {
			t.Errorf("step %v horizon %v: %d instants, want %d", c.step, c.horizon, got, c.want)
		}
	}
}

func TestAllAlgorithmsRunStreaming(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 25, 4)
	for _, alg := range assign.Algorithms {
		res, _ := replay(t, fw, engine.Config{Algorithm: alg, Seed: 3}, engine.Grid{Start: 120, Step: 3, Horizon: 12}, ws, ts)
		if res.Totals.Assigned == 0 {
			t.Errorf("%v assigned nothing in streaming mode", alg)
		}
	}
}
