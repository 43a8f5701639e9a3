package engine_test

import (
	"bytes"
	"errors"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"dita/internal/assign"
	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/engine"
	"dita/internal/geo"
	"dita/internal/lda"
	"dita/internal/model"
	"dita/internal/paralleltest"
	"dita/internal/randx"
)

func testFramework(t *testing.T) (*core.Framework, *dataset.Data) {
	t.Helper()
	p := dataset.BrightkiteLike()
	p.NumUsers = 150
	p.NumVenues = 200
	p.Days = 6
	p.Seed = 21
	data, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cutoff := 5 * 24.0
	fw, err := core.Train(core.TrainingDataFrom(data, cutoff), core.Config{LDA: lda.Config{Topics: 8, TrainIters: 30}})
	if err != nil {
		t.Fatal(err)
	}
	return fw, data
}

// streams builds time-sorted worker/task arrival streams over one
// simulated day.
func streams(data *dataset.Data, n int, seed uint64) ([]engine.WorkerArrival, []engine.TaskArrival) {
	rng := randx.New(seed)
	var ws []engine.WorkerArrival
	var ts []engine.TaskArrival
	for i := 0; i < n; i++ {
		u := model.WorkerID(rng.Intn(data.Params.NumUsers))
		ws = append(ws, engine.WorkerArrival{
			User:   u,
			Loc:    data.Homes[u],
			Radius: 25,
			At:     120 + rng.Float64()*12,
		})
		v := data.Venues[rng.Intn(len(data.Venues))]
		ts = append(ts, engine.TaskArrival{
			Loc: v.Loc, Publish: 120 + rng.Float64()*12, Valid: 3 + rng.Float64()*3,
			Categories: v.Categories, Venue: v.ID,
		})
	}
	sortArrivals(ws, ts)
	return ws, ts
}

func sortArrivals(ws []engine.WorkerArrival, ts []engine.TaskArrival) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].At < ws[j-1].At; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Publish < ts[j-1].Publish; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// normalize strips the only legitimately run-dependent values — wall
// clock measurements — so instant records compare bit for bit.
func normalize(instants []engine.InstantResult) []engine.InstantResult {
	out := append([]engine.InstantResult(nil), instants...)
	for i := range out {
		out[i].Prepare = 0
		out[i].PairMaint = 0
		out[i].Metrics.CPU = 0
	}
	return out
}

// coldComparable additionally zeroes the instants' willingness-entry
// counts: a warm session serves cached entries a fresh one computes
// again, so the counts differ by design between warm and cold runs.
func coldComparable(instants []engine.InstantResult) []engine.InstantResult {
	out := normalize(instants)
	for i := range out {
		out[i].WilEntries = 0
	}
	return out
}

// replayGrid replays the arrival streams on g through e. In cold mode
// each instant fires through engine.FireCold instead, the per-instant
// cold rebuild the carry-over session is gated against.
func replayGrid(t *testing.T, e *engine.Engine, cold bool, ws []engine.WorkerArrival, ts []engine.TaskArrival, g engine.Grid) []engine.InstantResult {
	t.Helper()
	if !cold {
		out, err := e.Replay(g, ws, ts)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var out []engine.InstantResult
	err := g.Events(ws, ts, func(ev engine.Event) error {
		if ev.Kind == engine.InstantFire {
			out = append(out, engine.FireCold(e, ev.At))
			return nil
		}
		_, err := e.Apply(ev)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// replayRun is one grid replay with the engine's totals at the end.
type replayRun struct {
	Instants []engine.InstantResult
	Totals   engine.Totals
}

// TestEngineReplayClockInvariant: the latency clock only measures, so
// a replay on a real-clock engine reproduces a clockless one bit for bit
// (DeepEqual after stripping wall-clock fields) at Parallelism 1, 2 and
// 8, and the engine counts exactly the instants the grid fired.
func TestEngineReplayClockInvariant(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 50, 11)
	g := engine.Grid{Start: 120, Step: 2, Horizon: 16}
	for _, par := range paralleltest.WorkerCounts {
		cfg := engine.Config{Algorithm: assign.IA, Seed: 5, Parallelism: par}
		clocked, _ := replay(t, fw, cfg, g, ws, ts)
		e, err := engine.New(fw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := replayRun{replayGrid(t, e, false, ws, ts, g), e.Totals()}
		if clocked.Totals.Assigned == 0 {
			t.Fatal("equivalence run assigned nothing; streams too sparse to gate anything")
		}
		if n := len(got.Instants); n != 9 || got.Totals.Instants != n || clocked.Totals.Instants != n {
			t.Fatalf("parallelism %d: %d instants recorded, totals count %d (clocked %d); the grid has 9",
				par, n, got.Totals.Instants, clocked.Totals.Instants)
		}
		clocked.Instants = normalize(clocked.Instants)
		got.Instants = normalize(got.Instants)
		if !reflect.DeepEqual(clocked, got) {
			t.Fatalf("parallelism %d: clocked replay diverged from the clockless one", par)
		}
	}
}

// TestEngineDepartureAndWithdrawal covers the two event kinds the batch
// replay never exercises: explicit worker departures and task
// withdrawals, including the unknown-id error contract dita-serve maps
// to 404s.
func TestEngineDepartureAndWithdrawal(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 10, 7)
	e, err := engine.New(fw, engine.Config{Algorithm: assign.IA, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var wids []model.WorkerID
	var tids []model.TaskID
	for _, w := range ws {
		ap, err := e.Apply(engine.Event{Kind: engine.WorkerArrive, Worker: w})
		if err != nil {
			t.Fatal(err)
		}
		wids = append(wids, ap.WorkerID)
	}
	for _, task := range ts {
		ap, err := e.Apply(engine.Event{Kind: engine.TaskArrive, Task: task})
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, ap.TaskID)
	}
	if e.Online() != len(ws) || e.Open() != len(ts) {
		t.Fatalf("pools %d/%d after %d/%d arrivals", e.Online(), e.Open(), len(ws), len(ts))
	}
	// Depart one worker and withdraw one task from the middle of the
	// pool.
	if _, err := e.Apply(engine.Event{Kind: engine.WorkerDepart, WorkerID: wids[3]}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(engine.Event{Kind: engine.TaskExpire, TaskID: tids[4]}); err != nil {
		t.Fatal(err)
	}
	if e.Online() != len(ws)-1 || e.Open() != len(ts)-1 {
		t.Fatalf("pools %d/%d after one departure and one withdrawal", e.Online(), e.Open())
	}
	// Departed entities are gone: repeating the event must fail.
	if _, err := e.Apply(engine.Event{Kind: engine.WorkerDepart, WorkerID: wids[3]}); !errors.Is(err, engine.ErrUnknownWorker) {
		t.Fatalf("second departure: %v, want ErrUnknownWorker", err)
	}
	if _, err := e.Apply(engine.Event{Kind: engine.TaskExpire, TaskID: tids[4]}); !errors.Is(err, engine.ErrUnknownTask) {
		t.Fatalf("second withdrawal: %v, want ErrUnknownTask", err)
	}
	tot := e.Totals()
	if tot.Departed != 1 || tot.Cancelled != 1 {
		t.Fatalf("totals %+v, want 1 departed / 1 cancelled", tot)
	}
	// The departed worker and withdrawn task never appear in an
	// assignment.
	ir := e.Fire(ws[len(ws)-1].At + 1)
	for _, pr := range ir.Assigned {
		if pr.Worker == wids[3] {
			t.Errorf("departed worker %d was assigned", pr.Worker)
		}
		if pr.Task == tids[4] {
			t.Errorf("withdrawn task %d was assigned", pr.Task)
		}
	}
	if ir.OnlineWorkers != len(ws)-1 {
		t.Errorf("instant saw %d online workers, want %d without the departed one", ir.OnlineWorkers, len(ws)-1)
	}
	// Stable ids round-trip: every assigned pair names ids the engine
	// actually minted.
	minted := map[model.WorkerID]bool{}
	for _, id := range wids {
		minted[id] = true
	}
	for _, pr := range ir.Assigned {
		if !minted[pr.Worker] {
			t.Errorf("assigned worker id %d was never minted", pr.Worker)
		}
	}
	// Entities assigned at the last instant, and ids never issued, are
	// not pooled either.
	if len(ir.Assigned) == 0 {
		t.Fatal("the instant assigned nothing; nothing to depart after assignment")
	}
	a := ir.Assigned[0]
	for _, id := range []model.WorkerID{a.Worker, model.WorkerID(len(ws)), -1} {
		if _, err := e.Apply(engine.Event{Kind: engine.WorkerDepart, WorkerID: id}); !errors.Is(err, engine.ErrUnknownWorker) {
			t.Errorf("departing worker %d: %v, want ErrUnknownWorker", id, err)
		}
	}
	for _, id := range []model.TaskID{a.Task, model.TaskID(len(ts)), -1} {
		if _, err := e.Apply(engine.Event{Kind: engine.TaskExpire, TaskID: id}); !errors.Is(err, engine.ErrUnknownTask) {
			t.Errorf("withdrawing task %d: %v, want ErrUnknownTask", id, err)
		}
	}
	if tot := e.Totals(); tot.Departed != 1 || tot.Cancelled != 1 {
		t.Errorf("totals %+v after refused events, want 1 departed / 1 cancelled", tot)
	}

	// A task withdrawn after its deadline but before the next sweep was
	// cancelled, not expired.
	e, err = engine.New(fw, engine.Config{Algorithm: assign.IA, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	late := ts[0]
	late.Publish, late.Valid = 120, 1
	ap, err := e.Apply(engine.Event{Kind: engine.TaskArrive, Task: late})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(engine.Event{Kind: engine.TaskExpire, TaskID: ap.TaskID}); err != nil {
		t.Fatal(err)
	}
	if e.Open() != 0 {
		t.Errorf("Open() = %d with the only task withdrawn, want 0", e.Open())
	}
	if ir := e.Fire(130); ir.Expired != 0 || ir.OpenTasks != 0 {
		t.Errorf("instant after the withdrawal: %d expired, %d open, want 0 and 0", ir.Expired, ir.OpenTasks)
	}
	if tot := e.Totals(); tot.Cancelled != 1 || tot.Expired != 0 {
		t.Errorf("totals %+v, want 1 cancelled and 0 expired", tot)
	}
}

// TestEngineDepartAllocFree checks that departures and withdrawals on a
// warm engine allocate nothing: they tombstone in place.
func TestEngineDepartAllocFree(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 40, 19)
	e, err := engine.New(fw, engine.Config{Algorithm: assign.IA, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if _, err := e.Apply(engine.Event{Kind: engine.WorkerArrive, Worker: ws[i]}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(engine.Event{Kind: engine.TaskArrive, Task: ts[i]}); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun calls the function runs+1 times; each call departs
	// and withdraws the next minted id.
	next := 0
	allocs := testing.AllocsPerRun(len(ws)-1, func() {
		if _, err := e.Apply(engine.Event{Kind: engine.WorkerDepart, WorkerID: model.WorkerID(next)}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(engine.Event{Kind: engine.TaskExpire, TaskID: model.TaskID(next)}); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("%v allocations per departure and withdrawal, want 0", allocs)
	}
	if e.Online() != 0 || e.Open() != 0 {
		t.Errorf("pools %d/%d after every id departed", e.Online(), e.Open())
	}
}

// TestEnginePoolChurn drives random arrivals, departures, withdrawals
// (of live, departed, assigned and never-issued ids) and instants, and
// checks after every event that the pools stay sorted by strictly
// increasing id with aligned marks, and that Online and Open match a
// shadow set of live ids.
func TestEnginePoolChurn(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 300, 13)
	e, err := engine.New(fw, engine.Config{Algorithm: assign.IA, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(17)
	liveW := map[model.WorkerID]bool{}
	liveT := map[model.TaskID]float64{} // live task → expiry
	var nW, nT int
	now := 120.0
	for step := 0; step < 1500; step++ {
		switch k := rng.Intn(10); {
		case k < 3 && nW < len(ws):
			ap, err := e.Apply(engine.Event{Kind: engine.WorkerArrive, Worker: ws[nW]})
			if err != nil {
				t.Fatal(err)
			}
			liveW[ap.WorkerID] = true
			nW++
		case k < 6 && nT < len(ts):
			task := ts[nT]
			task.Publish = now
			ap, err := e.Apply(engine.Event{Kind: engine.TaskArrive, Task: task})
			if err != nil {
				t.Fatal(err)
			}
			liveT[ap.TaskID] = task.Publish + task.Valid
			nT++
		case k < 8:
			id := model.WorkerID(rng.Intn(nW+2) - 1)
			_, err := e.Apply(engine.Event{Kind: engine.WorkerDepart, WorkerID: id})
			if liveW[id] != (err == nil) {
				t.Fatalf("step %d: departing worker %d (live %v): %v", step, id, liveW[id], err)
			}
			delete(liveW, id)
		case k < 9:
			id := model.TaskID(rng.Intn(nT+2) - 1)
			_, err := e.Apply(engine.Event{Kind: engine.TaskExpire, TaskID: id})
			if _, live := liveT[id]; live != (err == nil) {
				t.Fatalf("step %d: withdrawing task %d (live %v): %v", step, id, live, err)
			}
			delete(liveT, id)
		default:
			now += 0.5
			ir := e.Fire(now)
			for id, expiry := range liveT {
				if expiry < now {
					delete(liveT, id)
				}
			}
			for _, pr := range ir.Assigned {
				delete(liveW, pr.Worker)
				delete(liveT, pr.Task)
			}
		}
		if err := engine.CheckPools(e); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if e.Online() != len(liveW) || e.Open() != len(liveT) {
			t.Fatalf("step %d: Online() = %d, Open() = %d, want %d and %d", step, e.Online(), e.Open(), len(liveW), len(liveT))
		}
	}
	if tot := e.Totals(); tot.Assigned == 0 || tot.Departed == 0 || tot.Cancelled == 0 || tot.Expired == 0 {
		t.Fatalf("totals %+v: the churn left an outcome unexercised", tot)
	}
}

// TestEngineInstantReadsPoolsInPlace proves Fire safe to read the pools
// in place rather than from a copy. A random churn of arrivals,
// departures, withdrawals, deadline expiries and retirements runs
// against a shadow of the live entities. At every instant each
// positional pair must name, in the shadow's id-ordered pools after the
// deadline sweep, the worker and task its stable form reports. At the
// end of the run every stored result must still deep-equal the copy
// taken when Fire returned it: no later pool edit reaches a result.
func TestEngineInstantReadsPoolsInPlace(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 300, 29)
	e, err := engine.New(fw, engine.Config{Algorithm: assign.IA, Seed: 5, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(31)
	liveW := map[model.WorkerID]engine.WorkerArrival{}
	liveT := map[model.TaskID]engine.TaskArrival{}
	var nW, nT, idle, matched int
	var results, copies []engine.InstantResult
	now := 120.0
	for step := 0; step < 1500; step++ {
		switch k := rng.Intn(10); {
		case k < 3 && nW < len(ws):
			ap, err := e.Apply(engine.Event{Kind: engine.WorkerArrive, Worker: ws[nW]})
			if err != nil {
				t.Fatal(err)
			}
			liveW[ap.WorkerID] = ws[nW]
			nW++
		case k < 6 && nT < len(ts):
			task := ts[nT]
			task.Publish = now
			ap, err := e.Apply(engine.Event{Kind: engine.TaskArrive, Task: task})
			if err != nil {
				t.Fatal(err)
			}
			liveT[ap.TaskID] = task
			nT++
		case k < 7:
			id := model.WorkerID(rng.Intn(nW + 1))
			if _, live := liveW[id]; live {
				if _, err := e.Apply(engine.Event{Kind: engine.WorkerDepart, WorkerID: id}); err != nil {
					t.Fatal(err)
				}
				delete(liveW, id)
			}
		case k < 8:
			id := model.TaskID(rng.Intn(nT + 1))
			if _, live := liveT[id]; live {
				if _, err := e.Apply(engine.Event{Kind: engine.TaskExpire, TaskID: id}); err != nil {
					t.Fatal(err)
				}
				delete(liveT, id)
			}
		default:
			now += 0.5
			for id, task := range liveT {
				if task.Publish+task.Valid < now {
					delete(liveT, id)
				}
			}
			poolW := slices.Sorted(maps.Keys(liveW))
			poolT := slices.Sorted(maps.Keys(liveT))
			ir := e.Fire(now)
			if ir.OnlineWorkers != len(poolW) || ir.OpenTasks != len(poolT) {
				t.Fatalf("step %d: instant saw %d/%d pooled, shadow holds %d/%d",
					step, ir.OnlineWorkers, ir.OpenTasks, len(poolW), len(poolT))
			}
			if len(poolW) == 0 || len(poolT) == 0 {
				idle++
			}
			for k, pr := range ir.Pairs {
				a := ir.Assigned[k]
				if poolW[pr.Worker] != a.Worker || poolT[pr.Task] != a.Task || liveW[a.Worker].User != a.User {
					t.Fatalf("step %d: pair %d at positions (%d,%d) reports worker %d (user %d), task %d; the pools there hold worker %d (user %d), task %d",
						step, k, pr.Worker, pr.Task, a.Worker, a.User, a.Task, poolW[pr.Worker], liveW[poolW[pr.Worker]].User, poolT[pr.Task])
				}
				delete(liveW, a.Worker)
				delete(liveT, a.Task)
				matched++
			}
			c := ir
			c.Pairs = slices.Clone(ir.Pairs)
			c.Assigned = slices.Clone(ir.Assigned)
			results, copies = append(results, ir), append(copies, c)
		}
	}
	tot := e.Totals()
	if idle == 0 || matched == 0 || tot.Departed == 0 || tot.Cancelled == 0 || tot.Expired == 0 {
		t.Fatalf("%d idle instants, %d matched pairs, totals %+v: the churn left an outcome unexercised", idle, matched, tot)
	}
	for i := range results {
		if !reflect.DeepEqual(results[i], copies[i]) {
			t.Fatalf("instant %d (at %v) changed after Fire returned it", i, results[i].At)
		}
	}
}

// TestEngineClocklessLatenciesZero: a clockless engine records zero
// latencies, the solve's included, so two clockless replays of one
// stream are DeepEqual as they stand.
func TestEngineClocklessLatenciesZero(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 50, 11)
	g := engine.Grid{Start: 120, Step: 2, Horizon: 16}
	var runs [2][]engine.InstantResult
	for r := range runs {
		e, err := engine.New(fw, engine.Config{Algorithm: assign.IA, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		runs[r] = replayGrid(t, e, false, ws, ts, g)
	}
	assigned := 0
	for _, ir := range runs[0] {
		if ir.Prepare != 0 || ir.PairMaint != 0 || ir.Metrics.CPU != 0 {
			t.Fatalf("instant at %v: Prepare %v, PairMaint %v, Metrics.CPU %v on a clockless engine",
				ir.At, ir.Prepare, ir.PairMaint, ir.Metrics.CPU)
		}
		assigned += len(ir.Assigned)
	}
	if assigned == 0 {
		t.Fatal("replay assigned nothing; no solve was timed")
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatal("two clockless replays of one stream differ")
	}
}

// TestEngineRejectsInvalidArrivals: an arrival the engine refuses — a
// user outside the social graph, a category outside the LDA vocabulary,
// a negative or NaN radius, a zero, negative or NaN validity — fails
// with ErrInvalidArrival before it reaches the pools, so no later
// instant can index past the models' tables or pool a worker that
// reaches nothing and a task that is expired on arrival.
func TestEngineRejectsInvalidArrivals(t *testing.T) {
	fw, data := testFramework(t)
	e, err := engine.New(fw, engine.Config{Algorithm: assign.IA, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	n, vocab := model.WorkerID(fw.Graph().N()), model.CategoryID(fw.LDA().Vocab())
	for _, u := range []model.WorkerID{n, 1 << 30, -1} {
		_, err := e.Apply(engine.Event{Kind: engine.WorkerArrive, Worker: engine.WorkerArrival{User: u, Loc: data.Homes[0], Radius: 25}})
		if !errors.Is(err, engine.ErrInvalidArrival) {
			t.Errorf("worker with user %d: %v, want ErrInvalidArrival", u, err)
		}
	}
	for _, r := range []float64{-1, -1e-300, math.Inf(-1), math.NaN()} {
		_, err := e.Apply(engine.Event{Kind: engine.WorkerArrive, Worker: engine.WorkerArrival{User: 0, Loc: data.Homes[0], Radius: r}})
		if !errors.Is(err, engine.ErrInvalidArrival) {
			t.Errorf("worker with radius %g: %v, want ErrInvalidArrival", r, err)
		}
	}
	for _, c := range []model.CategoryID{vocab, 1 << 30, -1} {
		_, err := e.Apply(engine.Event{Kind: engine.TaskArrive, Task: engine.TaskArrival{
			Loc: data.Homes[0], Publish: 120, Valid: 3, Categories: []model.CategoryID{0, c},
		}})
		if !errors.Is(err, engine.ErrInvalidArrival) {
			t.Errorf("task with category %d: %v, want ErrInvalidArrival", c, err)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), -3, math.Inf(-1), math.NaN()} {
		_, err := e.Apply(engine.Event{Kind: engine.TaskArrive, Task: engine.TaskArrival{
			Loc: data.Homes[0], Publish: 120, Valid: v, Categories: []model.CategoryID{0},
		}})
		if !errors.Is(err, engine.ErrInvalidArrival) {
			t.Errorf("task with validity %g: %v, want ErrInvalidArrival", v, err)
		}
	}
	if e.Online() != 0 || e.Open() != 0 || e.Totals().Events != 0 || e.Pending() != 0 {
		t.Fatalf("rejected arrivals mutated the engine: %d online, %d open, totals %+v",
			e.Online(), e.Open(), e.Totals())
	}
	// Rejections mint no ids, and the edge of each range is accepted:
	// the last user with a zero radius, the last category with the
	// smallest positive validity.
	ap, err := e.Apply(engine.Event{Kind: engine.WorkerArrive, Worker: engine.WorkerArrival{User: n - 1, Loc: data.Homes[0], Radius: 0}})
	if err != nil || ap.WorkerID != 0 {
		t.Fatalf("valid worker after rejections: id %d, err %v", ap.WorkerID, err)
	}
	ap, err = e.Apply(engine.Event{Kind: engine.TaskArrive, Task: engine.TaskArrival{
		Loc: data.Homes[0], Publish: 120, Valid: math.SmallestNonzeroFloat64, Categories: []model.CategoryID{vocab - 1},
	}})
	if err != nil || ap.TaskID != 0 {
		t.Fatalf("valid task after rejections: id %d, err %v", ap.TaskID, err)
	}
	e.Fire(120)
}

// TestEngineWilEntriesDeterministic pins the willingness-entry count of
// every instant: identical at Parallelism 1, 2 and 8, nonzero over the
// run, and per instant never above what a cold rebuild (FireCold)
// computes for the same instant (a warm session serves the entries
// earlier instants filled).
func TestEngineWilEntriesDeterministic(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 50, 11)
	counts := func(cold bool, par int) []int {
		e, err := engine.New(fw, engine.Config{Algorithm: assign.IA, Seed: 5, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		for _, ir := range replayGrid(t, e, cold, ws, ts, engine.Grid{Start: 120, Step: 2, Horizon: 16}) {
			out = append(out, ir.WilEntries)
		}
		return out
	}
	want := counts(false, 1)
	total := 0
	for _, n := range want {
		total += n
	}
	if total == 0 {
		t.Fatal("run computed no willingness entries; the count is never exercised")
	}
	for _, par := range paralleltest.WorkerCounts[1:] {
		if got := counts(false, par); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: WilEntries %v, want %v", par, got, want)
		}
	}
	for i, n := range counts(true, 2) {
		if want[i] > n {
			t.Fatalf("instant %d: warm session computed %d entries, cold only %d", i, want[i], n)
		}
	}
}

// monotonicClock is a real latency clock for engines whose timed fields
// a test inspects.
func monotonicClock() engine.Clock {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// TestSessionMatchesColdPrepareStreaming is the acceptance gate of the
// incremental online phase: over a multi-instant run with arrivals,
// expiries and carry-over, the warm session must produce identical
// assignment sets and bit-identical metrics to rebuilding the influence
// state cold every instant (FireCold) — at Parallelism 1, 2 and 8.
// (Evaluator-state equality is asserted at the influence layer; here the
// equality covers everything downstream of the evaluator.)
func TestSessionMatchesColdPrepareStreaming(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 50, 11)
	run := func(cold bool, par int) replayRun {
		e, err := engine.New(fw, engine.Config{Algorithm: assign.IA, Seed: 5, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		instants := replayGrid(t, e, cold, ws, ts, engine.Grid{Start: 120, Step: 2, Horizon: 16})
		return replayRun{coldComparable(instants), e.Totals()}
	}
	want := run(true, 1)
	if want.Totals.Assigned == 0 {
		t.Fatal("equivalence run assigned nothing; streams too sparse to gate anything")
	}
	for _, par := range paralleltest.WorkerCounts {
		if got := run(false, par); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: session-backed run diverged from the cold per-instant rebuild", par)
		}
		if got := run(true, par); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: cold run not parallelism-invariant", par)
		}
	}
}

// TestSessionMatchesColdPrepareChurn gates the online phase under heavy
// churn: over a 200+-instant run (staggered arrivals, short task
// lifetimes, retirements at every matching instant), the warm session
// with its per-instant tiled pair scan must produce results identical to
// the cold reference at Parallelism 1, 2 and 8. Empty-pool instants must
// still time the session's cache upkeep, and the session's carry-over
// state must stay bounded by the live pool.
func TestSessionMatchesColdPrepareChurn(t *testing.T) {
	fw, data := testFramework(t)
	rng := randx.New(17)
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
	run := func(cold bool, par int) ([]engine.InstantResult, *engine.Engine) {
		e, err := engine.New(fw, engine.Config{
			Algorithm: assign.IA, Seed: 23, Parallelism: par, Clock: monotonicClock(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return replayGrid(t, e, cold, ws, ts, engine.Grid{Start: 120, Step: 0.5, Horizon: float64(days)*24 + 6}), e
	}
	wantRaw, we := run(true, 1)
	want := replayRun{coldComparable(wantRaw), we.Totals()}
	if got := len(want.Instants); got < 200 {
		t.Fatalf("churn run covers %d instants, the gate needs >= 200", got)
	}
	if want.Totals.Assigned == 0 || want.Totals.Expired == 0 {
		t.Fatalf("churn run saw %d assigned, %d expired — the gate needs arrivals, retirements and expiries",
			want.Totals.Assigned, want.Totals.Expired)
	}
	for _, par := range paralleltest.WorkerCounts {
		gotRaw, e := run(false, par)
		checkInstantShape(t, gotRaw, par)
		if got := (replayRun{coldComparable(gotRaw), e.Totals()}); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: warm churn run diverged from the cold reference", par)
		}
		sess := e.Session().Influence()
		if sess.CachedWorkers() > e.Online() || sess.CachedTasks() > e.Open() {
			t.Errorf("parallelism %d: session carries %d workers / %d tasks, pool holds %d / %d",
				par, sess.CachedWorkers(), sess.CachedTasks(), e.Online(), e.Open())
		}
	}
}

// checkInstantShape asserts what a warm run's instants report beyond
// their assignments. Every busy instant scanned its pairs through the
// tiling, so it reports an occupied tile count, and component stats
// whenever a pair is feasible. Instants with an empty pool side match
// nothing but still admit arrivals to the session caches and evict
// departures; that work must land in Prepare, or the warm online phase
// would be under-reported on sparse streams.
func checkInstantShape(t *testing.T, instants []engine.InstantResult, par int) {
	t.Helper()
	busy, withTiles, empty := 0, 0, 0
	var emptyPrepare time.Duration
	for _, in := range instants {
		if in.OnlineWorkers == 0 || in.OpenTasks == 0 {
			if in.Metrics.Feasible != 0 || len(in.Assigned) != 0 {
				t.Fatalf("parallelism %d: instant at %v with an empty pool side reports %d feasible, %d assigned",
					par, in.At, in.Metrics.Feasible, len(in.Assigned))
			}
			empty++
			emptyPrepare += in.Prepare
			continue
		}
		busy++
		if in.Tiles.Tiles > 0 {
			withTiles++
		}
		if in.Metrics.Feasible > 0 && in.Tiles.Components <= 0 {
			t.Fatalf("parallelism %d: busy instant at %v has %d feasible pairs but no component stats",
				par, in.At, in.Metrics.Feasible)
		}
	}
	if busy == 0 || withTiles != busy {
		t.Fatalf("parallelism %d: %d of %d busy instants report a tiling", par, withTiles, busy)
	}
	if empty == 0 {
		t.Fatal("run has no empty-pool instants; the cache-upkeep accounting gate needs some")
	}
	if emptyPrepare == 0 {
		t.Errorf("parallelism %d: empty-pool instants recorded zero Prepare: the cache upkeep ran untimed", par)
	}
}

// TestEngineTriggers pins the batch threshold: the engine volunteers an
// instant exactly when Batch events are pending, and firing resets the
// pending count.
func TestEngineTriggers(t *testing.T) {
	fw, data := testFramework(t)
	ws, _ := streams(data, 6, 3)
	e, err := engine.New(fw, engine.Config{Algorithm: assign.IA, Seed: 1, Batch: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws[:3] {
		ap, err := e.Apply(engine.Event{Kind: engine.WorkerArrive, Worker: w})
		if err != nil {
			t.Fatal(err)
		}
		if want := i == 2; ap.FireNow != want {
			t.Fatalf("event %d: FireNow %v, want %v", i, ap.FireNow, want)
		}
	}
	if e.Pending() != 3 {
		t.Fatalf("pending %d, want 3", e.Pending())
	}
	e.Fire(ws[2].At)
	if e.Pending() != 0 {
		t.Fatalf("pending %d after fire, want 0", e.Pending())
	}
}

// TestEngineSessionCacheTracksPool is the written bound on the
// session's memory: a stream of entities that arrive, never match and
// never leave (far corner, zero-radius workers, tasks valid past the
// horizon) grows the live pool, and after every instant the influence
// caches hold exactly that pool — one task state per open task and one
// user state per distinct user among the instant's workers — with
// results bit-identical at Parallelism 1, 2 and 8.
func TestEngineSessionCacheTracksPool(t *testing.T) {
	fw, data := testFramework(t)
	// A servable stream interleaved with an adversarial one.
	ws, ts := streams(data, 30, 19)
	rng := randx.New(77)
	const stuck = 60
	for i := 0; i < stuck; i++ {
		far := geo.Point{X: 500 + rng.Float64(), Y: 500 + rng.Float64()}
		ws = append(ws, engine.WorkerArrival{
			User: model.WorkerID(rng.Intn(data.Params.NumUsers)), Loc: far,
			Radius: 0.001, At: 120 + rng.Float64()*12,
		})
		ts = append(ts, engine.TaskArrival{
			Loc:     geo.Point{X: -500 - rng.Float64(), Y: -500 - rng.Float64()},
			Publish: 120 + rng.Float64()*12, Valid: 1e6, Venue: 1,
		})
	}
	sortArrivals(ws, ts)
	g := engine.Grid{Start: 120, Step: 1, Horizon: 16}
	paralleltest.Invariant(t, func(par int) any {
		e, err := engine.New(fw, engine.Config{Algorithm: assign.IA, Seed: 9, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		sess := e.Session().Influence()
		// The pooled workers' users, by platform id: the stream has no
		// departures, so a worker leaves the pool only by assignment.
		pooled := map[model.WorkerID]model.WorkerID{}
		var instants []engine.InstantResult
		err = g.Events(ws, ts, func(ev engine.Event) error {
			ap, err := e.Apply(ev)
			if err != nil {
				return err
			}
			switch {
			case ev.Kind == engine.WorkerArrive:
				pooled[ap.WorkerID] = ev.Worker.User
			case ap.Instant != nil:
				ir := *ap.Instant
				users := map[model.WorkerID]bool{}
				for _, u := range pooled {
					users[u] = true
				}
				if got := sess.CachedTasks(); got != ir.OpenTasks {
					t.Fatalf("parallelism %d, instant %v: %d cached tasks, %d open", par, ir.At, got, ir.OpenTasks)
				}
				if got := sess.CachedWorkers(); got != len(users) {
					t.Fatalf("parallelism %d, instant %v: %d cached workers, %d distinct pooled users", par, ir.At, got, len(users))
				}
				for _, a := range ir.Assigned {
					delete(pooled, a.Worker)
				}
				instants = append(instants, ir)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if e.Totals().Assigned == 0 {
			t.Fatal("adversarial run assigned nothing; the servable substream is too sparse")
		}
		// The never-matching entities must still be pooled at the end, or
		// the caches never had an unbounded pool to track.
		if e.Online() < stuck || e.Open() < stuck {
			t.Fatalf("live pool %d workers / %d tasks at the end; the %d never-matching arrivals per side left it",
				e.Online(), e.Open(), stuck)
		}
		return replayRun{normalize(instants), e.Totals()}
	})
}

// TestEngineAssignCSVByteIdentical pins the streaming CSV form: two
// identical runs render byte-identical files, the header is stable, and
// every assigned pair of the run appears exactly once.
func TestEngineAssignCSVByteIdentical(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 40, 5)
	run := func() ([]byte, int) {
		e, err := engine.New(fw, engine.Config{Algorithm: assign.IA, Seed: 3, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		instants := replayGrid(t, e, false, ws, ts, engine.Grid{Start: 120, Step: 2, Horizon: 14})
		return engine.AssignCSV(instants), e.Totals().Assigned
	}
	a, assigned := run()
	b, _ := run()
	if !bytes.Equal(a, b) {
		t.Fatal("streaming assignment CSV not byte-identical across identical runs")
	}
	lines := bytes.Split(bytes.TrimSuffix(a, []byte("\n")), []byte("\n"))
	if string(lines[0]) != "at,task,worker,user,influence,travel_km" {
		t.Fatalf("header %q", lines[0])
	}
	if assigned == 0 {
		t.Fatal("CSV run assigned nothing")
	}
	if len(lines)-1 != assigned {
		t.Fatalf("%d CSV rows, %d assignments", len(lines)-1, assigned)
	}
}
