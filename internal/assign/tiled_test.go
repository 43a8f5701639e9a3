package assign

import (
	"math"
	"reflect"
	"testing"

	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/randx"
)

// scatteredInstance builds pools spread over a wide box with modest
// radii, so the instant tiles into many occupied tiles and the
// feasibility graph splits into several components.
func scatteredInstance(nW, nT int, radius float64, seed uint64) *model.Instance {
	rng := randx.New(seed)
	inst := &model.Instance{Now: 0}
	for i := 0; i < nW; i++ {
		inst.Workers = append(inst.Workers, model.Worker{
			ID:     model.WorkerID(i),
			User:   model.WorkerID(i),
			Loc:    geo.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200},
			Radius: radius * (0.5 + rng.Float64()),
		})
	}
	for j := 0; j < nT; j++ {
		inst.Tasks = append(inst.Tasks, model.Task{
			ID:      model.TaskID(j),
			Loc:     geo.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200},
			Publish: 0,
			Valid:   0.5 + 3*rng.Float64(),
		})
	}
	return inst
}

func TestTiledFeasiblePairsMatchesGlobal(t *testing.T) {
	configs := []struct {
		nW, nT int
		radius float64
		seed   uint64
	}{
		{80, 120, 8, 1},
		{150, 100, 4, 2},
		{60, 60, 30, 3},  // radius comparable to the box: few fat tiles
		{40, 50, 0.5, 4}, // tiny radius: tile cap engages
		{1, 1, 10, 5},
		{50, 70, 0, 6}, // zero radius: only co-located pairs possible
	}
	for _, cfg := range configs {
		inst := scatteredInstance(cfg.nW, cfg.nT, cfg.radius, cfg.seed)
		want := bruteFeasiblePairs(inst, 5)
		for _, par := range []int{1, 2, 8} {
			got, tiles := TiledFeasiblePairs(inst, 5, par)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %+v par %d: tiled pairs diverge from brute force (%d vs %d pairs)",
					cfg, par, len(got), len(want))
			}
			if tiles < 1 {
				t.Fatalf("cfg %+v par %d: no occupied tiles reported", cfg, par)
			}
		}
	}
}

func TestTiledFeasiblePairsEmptyPools(t *testing.T) {
	inst := scatteredInstance(10, 0, 5, 1)
	if pairs, tiles := TiledFeasiblePairs(inst, 5, 4); pairs != nil || tiles != 0 {
		t.Fatalf("no tasks: got %d pairs, %d tiles", len(pairs), tiles)
	}
	inst = scatteredInstance(0, 10, 5, 1)
	if pairs, tiles := TiledFeasiblePairs(inst, 5, 4); pairs != nil || tiles != 0 {
		t.Fatalf("no workers: got %d pairs, %d tiles", len(pairs), tiles)
	}
}

// TestTiledBoundaryProperty is the boundary-correctness property test:
// entities sit exactly on tile edges and corners (coordinates are exact
// binary multiples of half the tile size, so no placement rounding
// blurs the boundary), worker radii equal the tile size exactly so
// pairs straddle tiles at exactly the reachability limit, and the scan
// runs under adversarial explicit tilings — including the 1×1
// degenerate tiling — at several worker counts. The tiled output must
// be bit-identical to the brute-force scan every time.
func TestTiledBoundaryProperty(t *testing.T) {
	const size = 4.0 // power of two: snapped coordinates are exact
	for seed := uint64(0); seed < 8; seed++ {
		rng := randx.New(1000 + seed)
		inst := &model.Instance{Now: 0}
		snap := func() float64 {
			// Mostly exact edge/corner multiples of size/2, some free.
			v := rng.Float64() * 64
			if rng.Intn(4) != 0 {
				v = math.Floor(v/(size/2)) * (size / 2)
			}
			return v
		}
		nW, nT := 40+rng.Intn(40), 40+rng.Intn(40)
		for i := 0; i < nW; i++ {
			inst.Workers = append(inst.Workers, model.Worker{
				ID: model.WorkerID(i), User: model.WorkerID(i),
				Loc:    geo.Point{X: snap(), Y: snap()},
				Radius: size, // exactly one tile: radius-straddling pairs abound
			})
		}
		for j := 0; j < nT; j++ {
			inst.Tasks = append(inst.Tasks, model.Task{
				ID: model.TaskID(j), Loc: geo.Point{X: snap(), Y: snap()},
				Publish: 0, Valid: 10,
			})
		}
		want := bruteFeasiblePairs(inst, 5)
		bounds := geo.Rect{Min: inst.Workers[0].Loc, Max: inst.Workers[0].Loc}
		for _, w := range inst.Workers {
			bounds = bounds.Extend(w.Loc)
		}
		for _, task := range inst.Tasks {
			bounds = bounds.Extend(task.Loc)
		}
		// Tile sizes at and above the reachability bound, including one
		// large enough to degenerate to a single 1×1 tile.
		for _, tileSize := range []float64{size, size * 1.5, size * 3, 1 << 20} {
			tl := geo.NewTiling(bounds, tileSize, 1<<20)
			if tileSize == 1<<20 && tl.Tiles() != 1 {
				t.Fatalf("seed %d: expected degenerate 1×1 tiling, got %dx%d", seed, tl.NX, tl.NY)
			}
			for _, par := range []int{1, 2, 8} {
				got, _ := tiledFeasiblePairs(inst, 5, par, tl)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d tileSize %v par %d: boundary pairs diverge (%d vs %d)",
						seed, tileSize, par, len(got), len(want))
				}
			}
		}
	}
}

// TestSolveTiledMatchesSolve is the tentpole gate at the assign layer:
// the tiled pipeline (tiled scan + component-parallel matching) must
// return a bit-identical assignment set to the sequential Solve for
// every algorithm — the paper's five and the MIX ablation — at
// parallelism 1, 2 and 8.
func TestSolveTiledMatchesSolve(t *testing.T) {
	ent := func(ti int) float64 { return float64(ti%7) / 3 }
	for _, cfg := range []struct {
		nW, nT int
		radius float64
		seed   uint64
	}{
		{70, 90, 6, 11},
		{120, 80, 3, 12},
		{50, 50, 40, 13}, // nearly one dense component
	} {
		inst := scatteredInstance(cfg.nW, cfg.nT, cfg.radius, cfg.seed)
		pairs := FeasiblePairs(inst, 5)
		prob := &Problem{Inst: inst, Influence: syntheticInfluence(cfg.seed), Entropy: ent, Pairs: pairs}
		algs := append(append([]Algorithm(nil), Algorithms...), MIX)
		for _, alg := range algs {
			want := Solve(alg, prob)
			for _, par := range []int{1, 2, 8} {
				got, stats := SolveTiled(alg, prob, par)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cfg %+v alg %v par %d: tiled assignment diverges (%d vs %d pairs)",
						cfg, alg, par, got.Len(), want.Len())
				}
				if want.Len() > 0 && stats.Components < 1 {
					t.Fatalf("cfg %+v alg %v par %d: no components reported", cfg, alg, par)
				}
				if stats.LargestComponent > len(pairs) {
					t.Fatalf("cfg %+v: largest component %d exceeds pair count", cfg, stats.LargestComponent)
				}
			}
		}
	}
}

// paperCost sums the algorithm's edge costs over an assignment set.
func paperCost(alg Algorithm, p *Problem, pairs []Pair, set *model.AssignmentSet) float64 {
	cost := map[[2]int32]float64{}
	for _, pr := range pairs {
		cost[[2]int32{pr.W, pr.T}] = edgeCost(alg, p, pr, p.influence(int(pr.W), int(pr.T)))
	}
	sum := 0.0
	for _, a := range set.Pairs {
		sum += cost[[2]int32{int32(a.Worker), int32(a.Task)}]
	}
	return sum
}

// TestSolveComponentsPreservesObjectives checks the decomposed solver
// against the retained monolithic reference: decomposition may pick a
// different equal-quality optimum (flow tie-breaks see different node
// numberings), but it must preserve the objective — cardinality for
// every algorithm, total edge cost for the min-cost family — and the
// greedy MI must match the monolithic pass exactly, pair for pair.
func TestSolveComponentsPreservesObjectives(t *testing.T) {
	ent := func(ti int) float64 { return float64(ti%5) / 2 }
	for seed := uint64(20); seed < 26; seed++ {
		inst := scatteredInstance(60, 70, 5, seed)
		pairs := FeasiblePairs(inst, 5)
		prob := &Problem{Inst: inst, Influence: syntheticInfluence(seed), Entropy: ent, Pairs: pairs}
		for _, alg := range Algorithms {
			mono := solveMonolithic(alg, prob, pairs)
			dec, _ := SolveTiled(alg, prob, 4)
			if dec.Len() != mono.Len() {
				t.Fatalf("seed %d alg %v: decomposed cardinality %d, monolithic %d",
					seed, alg, dec.Len(), mono.Len())
			}
			switch alg {
			case MI:
				if !reflect.DeepEqual(dec, mono) {
					t.Fatalf("seed %d: decomposed MI diverges from monolithic greedy", seed)
				}
			case IA, EIA, DIA:
				cm, cd := paperCost(alg, prob, pairs, mono), paperCost(alg, prob, pairs, dec)
				if math.Abs(cm-cd) > 1e-9*(1+math.Abs(cm)) {
					t.Fatalf("seed %d alg %v: decomposed cost %v, monolithic %v", seed, alg, cd, cm)
				}
			}
		}
	}
}

// bruteMaxInfluence enumerates all matchings of a small pair list and
// returns the maximum achievable total influence.
func bruteMaxInfluence(nT int, pairs []Pair, infl func(w, t int) float64) float64 {
	// Group pairs by worker for the recursion.
	byW := map[int32][]Pair{}
	var ws []int32
	for _, pr := range pairs {
		if _, ok := byW[pr.W]; !ok {
			ws = append(ws, pr.W)
		}
		byW[pr.W] = append(byW[pr.W], pr)
	}
	best := 0.0
	var rec func(i int, usedT uint64, sum float64)
	rec = func(i int, usedT uint64, sum float64) {
		if sum > best {
			best = sum
		}
		if i == len(ws) {
			return
		}
		rec(i+1, usedT, sum)
		for _, pr := range byW[ws[i]] {
			if usedT&(1<<uint(pr.T)) != 0 {
				continue
			}
			rec(i+1, usedT|(1<<uint(pr.T)), sum+infl(int(pr.W), int(pr.T)))
		}
	}
	rec(0, 0, 0)
	return best
}

// TestMIXExactMaxInfluence is the per-tile exact-assignment ablation
// gate: MIX must achieve the true maximum total influence (checked by
// brute force on small instances) and therefore never fall below the
// paper's greedy MI.
func TestMIXExactMaxInfluence(t *testing.T) {
	for seed := uint64(30); seed < 40; seed++ {
		inst := scatteredInstance(7, 8, 12, seed)
		infl := syntheticInfluence(seed)
		pairs := FeasiblePairs(inst, 5)
		prob := &Problem{Inst: inst, Influence: infl, Pairs: pairs}
		want := bruteMaxInfluence(len(inst.Tasks), pairs, infl)
		mix := Solve(MIX, prob)
		if got := mix.TotalInfluence(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: MIX influence %v, brute-force maximum %v", seed, got, want)
		}
		mi := Solve(MI, prob)
		if mix.TotalInfluence() < mi.TotalInfluence()-1e-12 {
			t.Fatalf("seed %d: exact MIX (%v) below greedy MI (%v)",
				seed, mix.TotalInfluence(), mi.TotalInfluence())
		}
	}
}

// TestMIXBeatsGreedyWhenGreedyTrapped pins a crafted instance where the
// greedy is strictly suboptimal: the top pair blocks the only partner
// of the second worker, costing the greedy the 2+2.9 < 3 trade.
func TestMIXBeatsGreedyWhenGreedyTrapped(t *testing.T) {
	inst := &model.Instance{Now: 0}
	inst.Workers = []model.Worker{
		{ID: 0, Loc: geo.Point{X: 0, Y: 0}, Radius: 10},
		{ID: 1, Loc: geo.Point{X: 1, Y: 0}, Radius: 1}, // reaches only task 0
	}
	inst.Tasks = []model.Task{
		{ID: 0, Loc: geo.Point{X: 1, Y: 0}, Publish: 0, Valid: 10},
		{ID: 1, Loc: geo.Point{X: 0, Y: 1}, Publish: 0, Valid: 10},
	}
	infl := func(w, t int) float64 {
		switch {
		case w == 0 && t == 0:
			return 3
		case w == 0 && t == 1:
			return 2
		case w == 1 && t == 0:
			return 2.9
		}
		return 0
	}
	prob := &Problem{Inst: inst, Influence: infl, Pairs: FeasiblePairs(inst, 5)}
	mi := Solve(MI, prob)
	mix := Solve(MIX, prob)
	if got := mi.TotalInfluence(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("greedy MI influence %v, expected the trapped 3", got)
	}
	if got := mix.TotalInfluence(); math.Abs(got-4.9) > 1e-12 {
		t.Fatalf("exact MIX influence %v, expected 4.9", got)
	}
}

func TestParseAlgorithmMIX(t *testing.T) {
	a, err := ParseAlgorithm("MIX")
	if err != nil || a != MIX {
		t.Fatalf("ParseAlgorithm(MIX) = %v, %v", a, err)
	}
	for _, a := range Algorithms {
		if a == MIX {
			t.Fatal("MIX must not join the paper's figure algorithms")
		}
	}
}
