package mobility

import (
	"math"
	"testing"
	"testing/quick"

	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/paralleltest"
	"dita/internal/randx"
)

func record(user model.WorkerID, venue model.VenueID, x, y, t float64) model.CheckIn {
	return model.CheckIn{
		User: user, Venue: venue,
		Loc: geo.Point{X: x, Y: y}, Arrive: t, Complete: t + 0.5,
	}
}

func TestFitParetoShapeRecovers(t *testing.T) {
	// MLE on synthetic Pareto(1, α) samples must recover α. (Equation 1
	// with x ≥ 1, ω = 1.)
	rng := randx.New(1)
	for _, alpha := range []float64{0.8, 1.5, 3.0} {
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = rng.Pareto(1, alpha)
		}
		got := FitParetoShape(xs, Config{MaxShape: 100})
		if math.Abs(got-alpha)/alpha > 0.05 {
			t.Errorf("alpha=%v: MLE %v off by more than 5%%", alpha, got)
		}
	}
}

func TestFitParetoShapeDegenerate(t *testing.T) {
	cfg := Config{DefaultShape: 2.5}
	if got := FitParetoShape(nil, cfg); got != 2.5 {
		t.Errorf("empty samples: %v, want default 2.5", got)
	}
	// All x_i = 1 (never moved): Σ ln x = 0 → default.
	if got := FitParetoShape([]float64{1, 1, 1}, cfg); got != 2.5 {
		t.Errorf("zero-movement samples: %v, want default 2.5", got)
	}
	// Values below 1 are clamped to 1 (distance + 1 ≥ 1 by construction,
	// but the API is defensive).
	if got := FitParetoShape([]float64{0.5, 0.1}, cfg); got != 2.5 {
		t.Errorf("sub-1 samples: %v, want default 2.5", got)
	}
	// The default is clamped like a fitted shape, so a worker who never
	// moved stays inside [MinShape, MaxShape] too.
	if got := FitParetoShape([]float64{1, 1, 1}, Config{MaxShape: 1}); got != 1 {
		t.Errorf("zero-movement samples under MaxShape 1: %v, want 1", got)
	}
}

func TestFitParetoShapeClamped(t *testing.T) {
	cfg := Config{MinShape: 0.5, MaxShape: 4}
	// Huge distances → tiny shape → clamped to MinShape.
	if got := FitParetoShape([]float64{1e9, 1e9}, cfg); got != 0.5 {
		t.Errorf("clamp low: %v, want 0.5", got)
	}
	// Barely-above-1 samples → huge shape → clamped to MaxShape.
	if got := FitParetoShape([]float64{1.0001, 1.0001}, cfg); got != 4 {
		t.Errorf("clamp high: %v, want 4", got)
	}
}

func TestStationaryDistributionSumsToOne(t *testing.T) {
	h := model.History{
		record(0, 0, 0, 0, 1),
		record(0, 1, 5, 0, 2),
		record(0, 0, 0, 0, 3),
		record(0, 2, 0, 5, 4),
		record(0, 1, 5, 0, 5),
	}
	m := Fit(map[model.WorkerID]model.History{0: h}, Config{})
	wm := m.Worker(0)
	if wm == nil {
		t.Fatal("no model fitted")
	}
	if len(wm.Locs) != 3 {
		t.Fatalf("distinct locations = %d, want 3", len(wm.Locs))
	}
	sum := 0.0
	for _, p := range wm.Stationary {
		if p < 0 {
			t.Fatalf("negative stationary probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stationary distribution sums to %v", sum)
	}
}

func TestStationaryFavorsFrequentLocation(t *testing.T) {
	// Worker visits venue 0 five times and venue 1 once: the stationary
	// probability of venue 0 must dominate.
	h := model.History{
		record(0, 0, 0, 0, 1),
		record(0, 0, 0, 0, 2),
		record(0, 1, 9, 9, 3),
		record(0, 0, 0, 0, 4),
		record(0, 0, 0, 0, 5),
		record(0, 0, 0, 0, 6),
	}
	m := Fit(map[model.WorkerID]model.History{0: h}, Config{})
	wm := m.Worker(0)
	if wm.Stationary[0] <= wm.Stationary[1] {
		t.Errorf("stationary %v does not favor the frequent location", wm.Stationary)
	}
}

func TestWillingnessDecreasesWithDistance(t *testing.T) {
	h := model.History{
		record(0, 0, 0, 0, 1),
		record(0, 1, 2, 0, 2),
		record(0, 0, 0, 0, 3),
	}
	m := Fit(map[model.WorkerID]model.History{0: h}, Config{})
	near := m.Worker(0).Willingness(geo.Point{X: 1, Y: 0})
	far := m.Worker(0).Willingness(geo.Point{X: 50, Y: 0})
	veryFar := m.Worker(0).Willingness(geo.Point{X: 500, Y: 0})
	if !(near > far && far > veryFar) {
		t.Errorf("willingness not decreasing: near %v, far %v, very far %v", near, far, veryFar)
	}
	if veryFar < 0 {
		t.Errorf("willingness negative: %v", veryFar)
	}
}

func TestWillingnessAtVisitedLocationIsStationaryBound(t *testing.T) {
	// At distance 0 the Pareto tail term is (0+1)^(−π) = 1, so the
	// willingness equals Σ_i Pw(i)·(d_i+1)^{−π} ≤ 1 and at least the
	// stationary mass of that exact location.
	h := model.History{
		record(0, 0, 0, 0, 1),
		record(0, 1, 10, 0, 2),
		record(0, 0, 0, 0, 3),
	}
	m := Fit(map[model.WorkerID]model.History{0: h}, Config{})
	wm := m.Worker(0)
	w := wm.Willingness(geo.Point{X: 0, Y: 0})
	if w > 1+1e-9 {
		t.Errorf("willingness %v exceeds 1", w)
	}
	if w < wm.Stationary[0] {
		t.Errorf("willingness %v below the location's own stationary mass %v", w, wm.Stationary[0])
	}
}

func TestWillingnessUnknownWorkerZero(t *testing.T) {
	// A user without a model has zero willingness: influence reads the
	// nil model as such.
	m := Fit(map[model.WorkerID]model.History{}, Config{})
	if m.Worker(7) != nil {
		t.Error("unknown worker has a model")
	}
}

func TestSingleVisitWorker(t *testing.T) {
	h := model.History{record(0, 3, 4, 4, 1)}
	m := Fit(map[model.WorkerID]model.History{0: h}, Config{DefaultShape: 2})
	wm := m.Worker(0)
	if len(wm.Locs) != 1 || wm.Stationary[0] != 1 {
		t.Fatalf("single-visit model wrong: %+v", wm)
	}
	if wm.Shape != 2 {
		t.Errorf("single-visit shape %v, want default 2", wm.Shape)
	}
	// Willingness = (d+1)^{-2} exactly.
	got := wm.Willingness(geo.Point{X: 7, Y: 8}) // distance 5
	want := math.Pow(6, -2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("willingness = %v, want %v", got, want)
	}
}

func TestWillingnessPropertyNonNegativeBounded(t *testing.T) {
	rng := randx.New(5)
	var h model.History
	for i := 0; i < 30; i++ {
		h = append(h, record(0, model.VenueID(rng.Intn(8)),
			rng.Float64()*100, rng.Float64()*100, float64(i)))
	}
	// Venue locations must be consistent per venue id for realism; give
	// each venue a fixed location.
	venueLoc := make(map[model.VenueID]geo.Point)
	for i := range h {
		v := h[i].Venue
		if loc, ok := venueLoc[v]; ok {
			h[i].Loc = loc
		} else {
			venueLoc[v] = h[i].Loc
		}
	}
	m := Fit(map[model.WorkerID]model.History{0: h}, Config{})
	f := func(x, y float64) bool {
		p := geo.Point{X: math.Mod(math.Abs(x), 1000), Y: math.Mod(math.Abs(y), 1000)}
		w := m.Worker(0).Willingness(p)
		return w >= 0 && w <= 1+1e-9 && !math.IsNaN(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFitSortsUnorderedHistory(t *testing.T) {
	// Records arrive shuffled; the Pareto shape must be computed on the
	// time-ordered sequence. Distances differ wildly between orders, so
	// compare against a pre-sorted fit.
	unordered := model.History{
		record(0, 2, 100, 0, 3),
		record(0, 0, 0, 0, 1),
		record(0, 1, 1, 0, 2),
	}
	ordered := model.History{
		record(0, 0, 0, 0, 1),
		record(0, 1, 1, 0, 2),
		record(0, 2, 100, 0, 3),
	}
	a := Fit(map[model.WorkerID]model.History{0: unordered}, Config{})
	b := Fit(map[model.WorkerID]model.History{0: ordered}, Config{})
	if math.Abs(a.Worker(0).Shape-b.Worker(0).Shape) > 1e-12 {
		t.Errorf("shape differs between shuffled (%v) and ordered (%v) input",
			a.Worker(0).Shape, b.Worker(0).Shape)
	}
}

func TestNumWorkers(t *testing.T) {
	m := Fit(map[model.WorkerID]model.History{
		0: {record(0, 0, 0, 0, 1)},
		3: {record(3, 1, 2, 2, 1)},
		5: {}, // empty history → no model
	}, Config{})
	if got := m.NumWorkers(); got != 2 {
		t.Errorf("NumWorkers = %d, want 2", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.RestartProb != 0.15 || c.DefaultShape != 2 {
		t.Errorf("unexpected defaults: %+v", c)
	}
	if c.MinShape <= 0 || c.MaxShape <= c.MinShape {
		t.Errorf("shape clamp invalid: %+v", c)
	}
}

func TestFitParallelismInvariant(t *testing.T) {
	// Many workers with structured random histories: the fitted model
	// map must be bit-identical at any pool width.
	rng := randx.New(17)
	histories := make(map[model.WorkerID]model.History, 120)
	for u := 0; u < 120; u++ {
		n := 1 + rng.Intn(12)
		var h model.History
		for i := 0; i < n; i++ {
			h = append(h, record(model.WorkerID(u), model.VenueID(rng.Intn(6)),
				rng.Float64()*200, rng.Float64()*200, float64(n-i))) // reversed times exercise the sort
		}
		histories[model.WorkerID(u)] = h
	}
	paralleltest.Invariant(t, func(par int) any {
		return Fit(histories, Config{Parallelism: par}).workers
	})
}

func TestFitDoesNotRetainParallelism(t *testing.T) {
	m := Fit(map[model.WorkerID]model.History{0: {record(0, 0, 1, 1, 1)}}, Config{Parallelism: 5})
	if m.cfg.Parallelism != 0 {
		t.Errorf("model retained Parallelism %d; the knob is not part of model identity", m.cfg.Parallelism)
	}
}
