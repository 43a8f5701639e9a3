package simulate

import (
	"reflect"
	"testing"

	"dita/internal/assign"
	"dita/internal/core"
	"dita/internal/dataset"
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

// streams builds worker/task arrival streams over one simulated day.
func streams(data *dataset.Data, n int, seed uint64) ([]ArrivingWorker, []ArrivingTask) {
	rng := randx.New(seed)
	var ws []ArrivingWorker
	var ts []ArrivingTask
	for i := 0; i < n; i++ {
		u := model.WorkerID(rng.Intn(data.Params.NumUsers))
		ws = append(ws, ArrivingWorker{
			User:   u,
			Loc:    data.Homes[u],
			Radius: 25,
			At:     120 + rng.Float64()*12,
		})
		v := data.Venues[rng.Intn(len(data.Venues))]
		ts = append(ts, ArrivingTask{
			Loc: v.Loc, Publish: 120 + rng.Float64()*12, Valid: 3 + rng.Float64()*3,
			Categories: v.Categories, Venue: v.ID,
		})
	}
	sortByAt(ws)
	sortByPublish(ts)
	return ws, ts
}

func sortByAt(ws []ArrivingWorker) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].At < ws[j-1].At; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

func sortByPublish(ts []ArrivingTask) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Publish < ts[j-1].Publish; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func TestNewValidation(t *testing.T) {
	fw, _ := testFramework(t)
	if _, err := New(fw, Config{Step: 0}); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := New(fw, Config{Step: 1, Horizon: -1}); err == nil {
		t.Error("negative horizon accepted")
	}
}

func TestRunAssignsAndRetires(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 40, 1)
	p, err := New(fw, Config{Algorithm: assign.IA, Step: 2, Start: 120, Horizon: 14, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(ws, ts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAssigned == 0 {
		t.Fatal("streaming run assigned nothing")
	}
	if res.TotalAssigned > 40 {
		t.Fatalf("assigned %d > 40 offered tasks", res.TotalAssigned)
	}
	if len(res.Instants) == 0 {
		t.Fatal("no instants recorded")
	}
	// Completion accounting is consistent.
	if res.CompletionRate < 0 || res.CompletionRate > 1 {
		t.Errorf("completion rate %v", res.CompletionRate)
	}
	// Workers go offline once assigned: online count at the end is the
	// arrivals minus total assigned (no worker re-enters).
	if got := p.Online(); got != len(ws)-res.TotalAssigned {
		t.Errorf("online %d, want %d", got, len(ws)-res.TotalAssigned)
	}
}

func TestTasksExpireUnserved(t *testing.T) {
	fw, _ := testFramework(t)
	// One task with no feasible worker ever: it must expire, not linger.
	p, err := New(fw, Config{Algorithm: assign.IA, Step: 1, Start: 0, Horizon: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks := []ArrivingTask{{Loc: geo.Point{X: 1, Y: 1}, Publish: 0, Valid: 2, Venue: 1}}
	res, err := p.Run(nil, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpiredTasks != 1 {
		t.Errorf("expired %d, want 1", res.ExpiredTasks)
	}
	if res.TotalAssigned != 0 || res.CompletionRate != 0 {
		t.Errorf("assigned %d rate %v on an unservable stream", res.TotalAssigned, res.CompletionRate)
	}
	if p.Open() != 0 {
		t.Errorf("expired task still open")
	}
}

func TestLaterArrivalsServedByLaterInstants(t *testing.T) {
	fw, data := testFramework(t)
	// A worker arriving at hour 126 cannot serve a task expiring at 124,
	// but can serve one expiring at 130.
	u := model.WorkerID(3)
	ws := []ArrivingWorker{{User: u, Loc: data.Homes[u], Radius: 1000, At: 126}}
	ts := []ArrivingTask{
		{Loc: data.Homes[u], Publish: 120, Valid: 4, Venue: 1},  // expires 124
		{Loc: data.Homes[u], Publish: 120, Valid: 10, Venue: 2}, // expires 130
	}
	p, err := New(fw, Config{Algorithm: assign.MTA, Step: 1, Start: 120, Horizon: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(ws, ts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAssigned != 1 {
		t.Fatalf("assigned %d, want exactly 1", res.TotalAssigned)
	}
	if res.ExpiredTasks != 1 {
		t.Fatalf("expired %d, want 1", res.ExpiredTasks)
	}
	if res.CompletionRate != 0.5 {
		t.Errorf("completion rate %v, want 0.5", res.CompletionRate)
	}
}

func TestSmallerStepServesAtLeastAsWell(t *testing.T) {
	// Assigning more frequently can only help completion (tasks get
	// matched before expiring).
	fw, data := testFramework(t)
	ws, ts := streams(data, 30, 9)
	run := func(step float64) *Result {
		p, err := New(fw, Config{Algorithm: assign.IA, Step: step, Start: 120, Horizon: 14, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(ws, ts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fine := run(1)
	coarse := run(7)
	if fine.TotalAssigned < coarse.TotalAssigned {
		t.Errorf("finer stepping assigned %d < coarse %d", fine.TotalAssigned, coarse.TotalAssigned)
	}
}

// normalize strips the only legitimately run-dependent values — wall
// clock measurements — so results can be compared bit for bit.
func normalize(res *Result) *Result {
	out := *res
	out.Instants = append([]InstantResult(nil), res.Instants...)
	for i := range out.Instants {
		out.Instants[i].Prepare = 0
		out.Instants[i].PairMaint = 0
		out.Instants[i].Metrics.CPU = 0
	}
	return &out
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
	run := func(par int) *Result {
		p, err := New(fw, Config{
			Algorithm: assign.DIA, Step: 1, Start: 120, Horizon: 18,
			Seed: 31, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(ws, ts)
		if err != nil {
			t.Fatal(err)
		}
		checkInstantShape(t, res, par)
		return normalize(res)
	}
	want := run(1)
	if want.TotalAssigned == 0 {
		t.Fatal("equivalence run assigned nothing; streams too sparse to gate anything")
	}
	for _, par := range paralleltest.WorkerCounts[1:] {
		if got := run(par); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: tiled run diverged from the sequential scan", par)
		}
	}
}

// checkInstantShape asserts what a run's instants report beyond their
// assignments. Every busy instant scanned its pairs through the tiling,
// so it reports an occupied tile count, and component stats whenever a
// pair is feasible.
func checkInstantShape(t *testing.T, res *Result, par int) {
	t.Helper()
	busy, withTiles := 0, 0
	for _, in := range res.Instants {
		if in.Metrics.Algorithm == "" {
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
}

// TestRunParallelismInvariant registers the streaming loop with the
// shared determinism harness.
func TestRunParallelismInvariant(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 40, 3)
	paralleltest.Invariant(t, func(par int) any {
		p, err := New(fw, Config{
			Algorithm: assign.EIA, Step: 2, Start: 120, Horizon: 14,
			Seed: 8, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(ws, ts)
		if err != nil {
			t.Fatal(err)
		}
		return normalize(res)
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
	var ws []ArrivingWorker
	var ts []ArrivingTask
	const days = 4
	for d := 0; d < days; d++ {
		base := 120.0 + float64(d)*24
		for i := 0; i < 25; i++ {
			u := model.WorkerID(rng.Intn(data.Params.NumUsers))
			ws = append(ws, ArrivingWorker{
				User: u, Loc: data.Homes[u], Radius: 25, At: base + rng.Float64()*20,
			})
			v := data.Venues[rng.Intn(len(data.Venues))]
			ts = append(ts, ArrivingTask{
				Loc: v.Loc, Publish: base + rng.Float64()*20, Valid: 1 + rng.Float64()*4,
				Categories: v.Categories, Venue: v.ID,
			})
		}
	}
	sortByAt(ws)
	sortByPublish(ts)
	run := func() (*Result, *Platform) {
		p, err := New(fw, Config{
			Algorithm: assign.IA, Step: 1.5, Start: 120, Horizon: float64(days)*24 + 6,
			Seed: 21, Parallelism: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(ws, ts)
		if err != nil {
			t.Fatal(err)
		}
		return normalize(res), p
	}
	a, pa := run()
	b, _ := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("long-horizon run is not deterministic")
	}
	if a.TotalAssigned == 0 || a.ExpiredTasks == 0 {
		t.Fatalf("horizon covered no churn: %d assigned, %d expired — the test needs both",
			a.TotalAssigned, a.ExpiredTasks)
	}
	// The instant grid is an exact integer lattice: no float drift.
	for i, in := range a.Instants {
		if want := 120 + float64(i)*1.5; in.At != want {
			t.Fatalf("instant %d at %v, want exactly %v", i, in.At, want)
		}
	}
	// Carry-over eviction: the session cache cannot exceed the platform's
	// final live pool (every assigned or expired entity must be gone).
	sess := pa.Session().Influence()
	if sess.CachedTasks() > pa.Open() {
		t.Errorf("session caches %d tasks but only %d are open", sess.CachedTasks(), pa.Open())
	}
	if sess.CachedWorkers() > pa.Online() {
		t.Errorf("session caches %d workers but only %d are online", sess.CachedWorkers(), pa.Online())
	}
}

// TestHorizonExactMultipleKeepsFinalInstant is the regression gate for
// the instant-count rule: now = Start + i*Step accumulates ulp error, so
// the pre-fix loop condition `now > end` dropped the final instant
// whenever Horizon was an exact decimal — but not binary — multiple of
// Step (0.1*24 = 2.4000000000000004 > 2.4). The instant count is now
// fixed up front as ⌊Horizon/Step + ε⌋ + 1.
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
		p, err := New(fw, Config{Algorithm: assign.IA, Step: c.step, Start: 0, Horizon: c.horizon, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.Instants); got != c.want {
			t.Errorf("step %v horizon %v: %d instants, want %d", c.step, c.horizon, got, c.want)
		}
	}
}

func TestAllAlgorithmsRunStreaming(t *testing.T) {
	fw, data := testFramework(t)
	ws, ts := streams(data, 25, 4)
	for _, alg := range assign.Algorithms {
		p, err := New(fw, Config{Algorithm: alg, Step: 3, Start: 120, Horizon: 12, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(ws, ts)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.TotalAssigned == 0 {
			t.Errorf("%v assigned nothing in streaming mode", alg)
		}
	}
}
