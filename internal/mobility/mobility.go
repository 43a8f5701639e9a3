// Package mobility implements the Historical Acceptance (HA) approach of
// Section III-B: the probability Pwil(w, s) that worker w is willing to
// visit the location of task s, derived from the worker's historical
// task-performing records.
//
// HA combines two parts:
//
//  1. A stationary distribution Pw(w, si) over the locations the worker
//     has performed tasks at, computed with Random Walk with Restart over
//     the worker's location-transition structure. (The paper's weight
//     matrix is row-normalized over visited locations; we walk the
//     observed consecutive-visit transitions with a restart to the
//     empirical visit distribution, which reduces to the paper's uniform
//     construction when every location is visited equally often.)
//  2. A Pareto tail probability of moving distance d(si, s): the movement
//     lengths are self-similar, so P[move ≥ x] = (x+1)^(−π) with the
//     shape π fitted by maximum likelihood (Equation 1).
//
// The willingness is Equation 2:
//
//	Pwil(w,s) = Σ_i Pw(w,si) · (d(si,s)+1)^(−π)
package mobility

import (
	"fmt"
	"math"
	"slices"

	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/parallel"
)

// Config controls HA model fitting. Zero values select defaults: restart
// probability 0.15, power-iteration tolerance 1e-10, 200 max iterations,
// default Pareto shape 2 for degenerate histories, shape clamped to
// [0.05, 16].
type Config struct {
	RestartProb  float64 `json:"restart_prob"`
	Tolerance    float64 `json:"tolerance"`
	MaxIters     int     `json:"max_iters"`
	DefaultShape float64 `json:"default_shape"`
	MinShape     float64 `json:"min_shape"`
	MaxShape     float64 `json:"max_shape"`
	// Parallelism bounds the fitting worker goroutines; <= 0 means
	// runtime.GOMAXPROCS(0). Per-worker fits are independent and draw no
	// randomness, so the fitted model is bit-identical at any setting.
	// The knob is a runtime choice, not part of the model identity, so
	// the fitted Model does not retain it.
	Parallelism int `json:"parallelism,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.RestartProb <= 0 || c.RestartProb >= 1 {
		c.RestartProb = 0.15
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-10
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 200
	}
	if c.DefaultShape <= 0 {
		c.DefaultShape = 2
	}
	if c.MinShape <= 0 {
		c.MinShape = 0.05
	}
	if c.MaxShape <= 0 {
		c.MaxShape = 16
	}
	return c
}

// WorkerModel is the fitted HA state for one worker: the distinct
// locations of performed tasks, their stationary probabilities, and the
// Pareto shape of the worker's movement lengths.
type WorkerModel struct {
	Locs       []geo.Point
	Stationary []float64
	Shape      float64
}

// Willingness evaluates Equation 2 at the given task location. A worker
// with no history has zero willingness everywhere (they have never
// accepted anything).
func (wm *WorkerModel) Willingness(loc geo.Point) float64 {
	sum := 0.0
	for i, p := range wm.Locs {
		d := geo.Dist(p, loc)
		sum += wm.Stationary[i] * math.Pow(d+1, -wm.Shape)
	}
	return sum
}

// wilRelErr is Willingness32's per-term relative error allowance r; the
// derivation on Willingness32 bounds the true per-term error by 2⁻⁴⁰·⁹,
// so r = 2⁻³⁶ leaves a 30× margin.
const wilRelErr = 0x1p-36

// Willingness32 returns float32(wm.Willingness(loc)) bit for bit, and
// whether it had to call Willingness to get it (the fallback).
//
// The fast path evaluates each term as
//
//	t_i = Stationary[i] · Exp(y_i),  y_i = −Shape · Log(Sqrt(dx²+dy²) + 1)
//
// — one Exp and one Log, where Pow spends an Exp, a Log, a Modf, a Frexp,
// up to five squarings and an Ldexp — and sums s = Σ t_i and A = Σ |t_i|
// in the same order as Willingness. With a proven bound E ≥ |s − v| on
// the distance to the exact float64 v, v lies in [s−E, s+E]; conversion
// to float32 is monotonic, so when both ends convert to the same float32
// (same bits, so the sign of a zero agrees too) v converts to it as well.
// Otherwise, and outside the domain the bound covers, it returns
// float32(wm.Willingness(loc)). Either way the result is exact; the
// fallback only costs time.
//
// The bound, with u = 2⁻⁵³ and x = d+1 for the true distance d of the
// float64 offsets dx, dy. It assumes the documented accuracy of Exp and
// Log (error < 1 ulp, at most 2u relative) and the algorithm of the
// standard library's pow (math/pow.go). Per term:
//
//   - Distance. Hypot(dx, dy) is max·Sqrt(1+(min/max)²), within 4u of d;
//     Sqrt(dx²+dy²) is within 2u. Adding 1 rounds each by u, so the two
//     bases differ by at most 8u·x, and x^(−Shape) by 8u·Shape ≤ 128u
//     relative, for Shape ≤ 16. (Squares that underflow move d by less
//     than 2⁻⁵¹⁰, nothing next to the 1.)
//   - Exact kernel. Pow(x, −Shape) splits Shape into yi + yf with
//     |yf| ≤ 1/2 and yi ≤ 16, computes Exp(yf·Log(x)) and multiplies in
//     x^yi by repeated squaring of the exact Frexp mantissa. An absolute
//     error Δ in an exponent is a relative error of about Δ in the term.
//     |yf·Log(x)| ≤ |y|, so Log's error and the product's rounding add at
//     most 3u|y|; Exp adds 2u, the squarings and products that multiply
//     in x^yi add yi·u ≤ 16u, the reciprocal u: (3|y| + 19)u in all, and
//     u for the product with Stationary[i].
//   - Fast path. Log's error and the rounding of −Shape·Log add 3u|y|,
//     Exp 2u, the product with Stationary[i] u: (3|y| + 3)u.
//
// The two terms therefore differ by at most (6|y| + 151)u relative, which
// is 4351u < 2⁻⁴⁰·⁹ for |y| ≤ 700; r = 2⁻³⁶ covers it 30 times over, a
// margin that also absorbs the rounding of s±E and an assembly Exp or
// Log (amd64's accuracy is undocumented) a few ulps off the bound.
// Summing n terms in order adds at most (n−1)u·A to each side, so
// E = (r + n·2⁻⁵²)·A + δ. The relative bounds fail only for subnormal
// results, whose rounding error is below 2⁻¹⁰⁷⁴ per operation;
// δ = 2⁻¹⁰⁰⁰ covers them and cannot decide a float32 on its own, since
// everything below 2⁻¹⁵⁰ converts to zero.
//
// The domain: 0 < Shape ≤ 16 (the default fitting range) and every
// y_i ≥ −700, so Exp and Pow return normal numbers. NaN and infinite
// inputs fall outside it, or make s±E NaN and fail the comparison; both
// fall back.
func (wm *WorkerModel) Willingness32(loc geo.Point) (float32, bool) {
	shape := wm.Shape
	if !(shape > 0 && shape <= 16) {
		return float32(wm.Willingness(loc)), true
	}
	s, a := 0.0, 0.0
	for i, p := range wm.Locs {
		dx, dy := p.X-loc.X, p.Y-loc.Y
		y := -shape * math.Log(math.Sqrt(dx*dx+dy*dy)+1)
		if !(y >= -700) {
			return float32(wm.Willingness(loc)), true
		}
		t := wm.Stationary[i] * math.Exp(y)
		s += t
		a += math.Abs(t)
	}
	e := (wilRelErr+float64(len(wm.Locs))*0x1p-52)*a + 0x1p-1000
	lo, hi := float32(s-e), float32(s+e)
	if lo == hi && math.Float32bits(lo) == math.Float32bits(hi) {
		return lo, false
	}
	return float32(wm.Willingness(loc)), true
}

// Top returns the model restricted to its top highest-stationary
// locations, their stationary probabilities renormalized to sum to one,
// or wm itself when it has no more than top locations (or top <= 0).
func (wm *WorkerModel) Top(top int) *WorkerModel {
	if top <= 0 || len(wm.Locs) <= top {
		return wm
	}
	type ip struct {
		i int
		p float64
	}
	items := make([]ip, len(wm.Stationary))
	for i, p := range wm.Stationary {
		items[i] = ip{i, p}
	}
	// Partial selection of the top locations (selection sort over `top`
	// slots; top is a small constant).
	for a := 0; a < top; a++ {
		best := a
		for b := a + 1; b < len(items); b++ {
			if items[b].p > items[best].p {
				best = b
			}
		}
		items[a], items[best] = items[best], items[a]
	}
	t := &WorkerModel{Shape: wm.Shape}
	mass := 0.0
	for _, it := range items[:top] {
		mass += it.p
	}
	for _, it := range items[:top] {
		t.Locs = append(t.Locs, wm.Locs[it.i])
		// Renormalize so the stationary distribution stays a
		// distribution after truncation.
		t.Stationary = append(t.Stationary, it.p/mass)
	}
	return t
}

// Model holds fitted worker models keyed by stable user id.
type Model struct {
	cfg     Config
	workers map[model.WorkerID]*WorkerModel
}

// Fit builds HA models for every worker with a history, fitting workers
// concurrently on the shared pool (each fit is independent: RWR power
// iteration plus the Pareto MLE, no randomness). Histories must be (or
// will be treated as) ordered by check-in time; Fit sorts defensively.
func Fit(histories map[model.WorkerID]model.History, cfg Config) *Model {
	cfg = cfg.withDefaults()
	ids := make([]model.WorkerID, 0, len(histories))
	for id, h := range histories {
		if len(h) == 0 {
			continue
		}
		ids = append(ids, id)
	}
	// Map iteration order is random; sorting pins item indices so every
	// run fits the same worker under the same index.
	slices.Sort(ids)
	fitted := make([]*WorkerModel, len(ids))
	parallel.For(parallel.Workers(cfg.Parallelism), len(ids), func(_, i int) {
		h := histories[ids[i]]
		h.SortByTime()
		fitted[i] = fitWorker(h, cfg)
	})
	cfg.Parallelism = 0 // runtime knob, not model identity
	m := &Model{cfg: cfg, workers: make(map[model.WorkerID]*WorkerModel, len(ids))}
	for i, id := range ids {
		m.workers[id] = fitted[i]
	}
	return m
}

// Worker returns the fitted model for a user, or nil when the user has no
// history.
func (m *Model) Worker(id model.WorkerID) *WorkerModel { return m.workers[id] }

// NumWorkers returns how many workers have fitted models.
func (m *Model) NumWorkers() int { return len(m.workers) }

func fitWorker(h model.History, cfg Config) *WorkerModel {
	// Distinct locations in first-visit order; visits counted per venue.
	index := make(map[model.VenueID]int)
	var locs []geo.Point
	visits := []float64{}
	seq := make([]int, len(h)) // per record: its location state index
	for i, c := range h {
		j, ok := index[c.Venue]
		if !ok {
			j = len(locs)
			index[c.Venue] = j
			locs = append(locs, c.Loc)
			visits = append(visits, 0)
		}
		visits[j]++
		seq[i] = j
	}
	n := len(locs)
	wm := &WorkerModel{
		Locs:       locs,
		Stationary: stationaryRWR(n, seq, visits, cfg),
		Shape:      FitParetoShape(movementSamples(h), cfg),
	}
	return wm
}

// movementSamples returns x_i = d(s_i, s_{i+1}) + 1 over consecutive
// performed tasks, the samples Equation 1's MLE consumes.
func movementSamples(h model.History) []float64 {
	if len(h) < 2 {
		return nil
	}
	xs := make([]float64, 0, len(h)-1)
	for i := 0; i+1 < len(h); i++ {
		xs = append(xs, geo.Dist(h[i].Loc, h[i+1].Loc)+1)
	}
	return xs
}

// FitParetoShape implements Equation 1: π = (n)/Σ ln x_i over n samples
// with x_i ≥ 1 (the paper writes |Sw|−1 samples for a history of |Sw|
// records; here n = len(xs) is already that count). When Σ ln x_i = 0 —
// the worker never moved — the paper's formula is undefined and the
// configured default shape is returned. The result is clamped to
// [MinShape, MaxShape] to keep downstream powers stable.
func FitParetoShape(xs []float64, cfg Config) float64 {
	cfg = cfg.withDefaults()
	if len(xs) == 0 {
		return cfg.DefaultShape
	}
	sumLn := 0.0
	for _, x := range xs {
		if x < 1 {
			x = 1
		}
		sumLn += math.Log(x)
	}
	if sumLn <= 0 {
		return cfg.DefaultShape
	}
	pi := float64(len(xs)) / sumLn
	if pi < cfg.MinShape {
		pi = cfg.MinShape
	}
	if pi > cfg.MaxShape {
		pi = cfg.MaxShape
	}
	return pi
}

// stationaryRWR computes the Random Walk with Restart stationary
// distribution over the worker's n distinct locations. The transition
// matrix follows the observed consecutive-visit transitions (row
// normalized); states without outgoing transitions redistribute uniformly
// (standard dangling-node handling). The restart vector is the empirical
// visit distribution.
func stationaryRWR(n int, seq []int, visits []float64, cfg Config) []float64 {
	if n == 1 {
		return []float64{1}
	}
	// Sparse transition counts, folded into per-state adjacency lists
	// sorted by destination before the power iteration: the hot loop
	// never ranges over a map (iteration order is randomized and the
	// dita-lint maporder invariant forbids accumulating under it), and
	// the presorted slices are cheaper to walk per iteration anyway.
	counts := make([]map[int]float64, n)
	outTotal := make([]float64, n)
	for i := 0; i+1 < len(seq); i++ {
		a, b := seq[i], seq[i+1]
		if counts[a] == nil {
			counts[a] = make(map[int]float64)
		}
		counts[a][b]++
		outTotal[a]++
	}
	type edge struct {
		to int
		w  float64
	}
	trans := make([][]edge, n)
	for a, m := range counts {
		for b, w := range m {
			trans[a] = append(trans[a], edge{to: b, w: w})
		}
		slices.SortFunc(trans[a], func(x, y edge) int { return x.to - y.to })
	}
	// Restart vector: empirical visit frequencies.
	restart := make([]float64, n)
	totalVisits := 0.0
	for _, v := range visits {
		totalVisits += v
	}
	for i, v := range visits {
		restart[i] = v / totalVisits
	}

	p := make([]float64, n)
	next := make([]float64, n)
	copy(p, restart)
	c := 1 - cfg.RestartProb // continue probability
	for iter := 0; iter < cfg.MaxIters; iter++ {
		dangling := 0.0
		for i := range next {
			next[i] = 0
		}
		for a := 0; a < n; a++ {
			if outTotal[a] == 0 {
				dangling += p[a]
				continue
			}
			for _, e := range trans[a] {
				next[e.to] += p[a] * e.w / outTotal[a]
			}
		}
		diff := 0.0
		for i := 0; i < n; i++ {
			v := c*(next[i]+dangling/float64(n)) + cfg.RestartProb*restart[i]
			diff += math.Abs(v - p[i])
			next[i] = v
		}
		p, next = next, p
		if diff < cfg.Tolerance {
			break
		}
	}
	// Normalize defensively against floating point drift.
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if sum > 0 {
		for i := range p {
			p[i] /= sum
		}
	}
	return p
}

// WorkerWire is one worker's fitted HA state in serialized form.
type WorkerWire struct {
	ID         model.WorkerID `json:"id"`
	Locs       []geo.Point    `json:"locs"`
	Stationary []float64      `json:"stationary"`
	Shape      float64        `json:"shape"`
}

// Wire is the fitted model's serialized form, part of the framework
// artifact's pinned wire format (see internal/fwio). Workers are listed
// in ascending id order so the encoding is canonical: byte-identical
// runs produce byte-identical artifacts.
type Wire struct {
	Config  Config       `json:"config"`
	Workers []WorkerWire `json:"workers"`
}

// Wire returns the model's serialized form. Per-worker slices alias
// model storage; callers must treat them as read-only.
func (m *Model) Wire() Wire {
	ids := make([]model.WorkerID, 0, len(m.workers))
	for id := range m.workers {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	w := Wire{Config: m.cfg, Workers: make([]WorkerWire, len(ids))}
	for i, id := range ids {
		wm := m.workers[id]
		w.Workers[i] = WorkerWire{ID: id, Locs: wm.Locs, Stationary: wm.Stationary, Shape: wm.Shape}
	}
	return w
}

// FromWire rebuilds a fitted model from its serialized form. Worker ids
// must be strictly ascending (the canonical order Wire emits; it also
// rules out duplicate entries silently overwriting each other) and each
// worker's location and stationary vectors must align. Every model must
// also be one Fit can produce, so that Pwil stays a probability: each
// stationary probability in [0, 1] and their sum at most 1 (up to
// rounding), and the shape within the config's [MinShape, MaxShape] (or
// its DefaultShape, which Fit gives a worker who never moved). The
// Parallelism knob is forced to zero, as Fit does: it is a runtime
// choice, not model identity.
func FromWire(w Wire) (*Model, error) {
	cfg := w.Config
	cfg.Parallelism = 0
	lim := cfg.withDefaults()
	m := &Model{cfg: cfg, workers: make(map[model.WorkerID]*WorkerModel, len(w.Workers))}
	for i, ww := range w.Workers {
		if i > 0 && ww.ID <= w.Workers[i-1].ID {
			return nil, fmt.Errorf("mobility: wire workers not strictly ascending at index %d (%d after %d)", i, ww.ID, w.Workers[i-1].ID)
		}
		if len(ww.Locs) == 0 {
			return nil, fmt.Errorf("mobility: wire worker %d has no locations (Fit never emits empty models)", ww.ID)
		}
		if len(ww.Locs) != len(ww.Stationary) {
			return nil, fmt.Errorf("mobility: wire worker %d has %d locations but %d stationary probabilities", ww.ID, len(ww.Locs), len(ww.Stationary))
		}
		mass := 0.0
		for _, p := range ww.Stationary {
			if !(p >= 0 && p <= 1) {
				return nil, fmt.Errorf("mobility: wire worker %d has stationary probability %v outside [0, 1]", ww.ID, p)
			}
			mass += p
		}
		if mass > 1+1e-9 {
			return nil, fmt.Errorf("mobility: wire worker %d has stationary probabilities summing to %v > 1", ww.ID, mass)
		}
		if !(ww.Shape >= lim.MinShape && ww.Shape <= lim.MaxShape) && ww.Shape != lim.DefaultShape {
			return nil, fmt.Errorf("mobility: wire worker %d has shape %v outside [%v, %v]", ww.ID, ww.Shape, lim.MinShape, lim.MaxShape)
		}
		m.workers[ww.ID] = &WorkerModel{Locs: ww.Locs, Stationary: ww.Stationary, Shape: ww.Shape}
	}
	return m, nil
}
