package assign

import (
	"math"
	"reflect"
	"testing"

	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/randx"
)

// randomInstance builds an instance with nW workers and nT tasks placed
// uniformly in a box. Radius/valid are generous enough that instances are
// well connected but not complete.
func randomInstance(nW, nT int, seed uint64) *model.Instance {
	rng := randx.New(seed)
	inst := &model.Instance{Now: 0}
	for i := 0; i < nW; i++ {
		inst.Workers = append(inst.Workers, model.Worker{
			ID:     model.WorkerID(i),
			User:   model.WorkerID(i),
			Loc:    geo.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50},
			Radius: 15,
		})
	}
	for j := 0; j < nT; j++ {
		inst.Tasks = append(inst.Tasks, model.Task{
			ID:      model.TaskID(j),
			Loc:     geo.Point{X: rng.Float64() * 50, Y: rng.Float64() * 50},
			Publish: 0,
			Valid:   4,
		})
	}
	return inst
}

// syntheticInfluence gives each (w, t) a deterministic pseudo-random
// influence value so algorithm behaviour is reproducible.
func syntheticInfluence(seed uint64) func(w, t int) float64 {
	return func(w, t int) float64 {
		h := seed ^ uint64(w)*0x9e3779b97f4a7c15 ^ uint64(t)*0xbf58476d1ce4e5b9
		h ^= h >> 31
		h *= 0x94d049bb133111eb
		h ^= h >> 29
		return float64(h%1000) / 1000
	}
}

func TestFeasiblePairsMatchBruteForce(t *testing.T) {
	inst := randomInstance(40, 60, 1)
	got := FeasiblePairs(inst, 5)
	if len(got) == 0 {
		t.Fatal("instance has no feasible pairs; the comparison is vacuous")
	}
	if want := bruteFeasiblePairs(inst, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("FeasiblePairs returned %d pairs, brute force %d", len(got), len(want))
	}
}

// TestFeasiblePairsTinyRadiusAndFarCoordinates covers instances whose
// reach is tiny next to their extent: a radius of 1e-9 km over a
// 1000 km box, and moderate radii at coordinates near 1e19 km. The tile
// count the reach asks for overflows int, so the tiling must clamp it
// before converting; the scan must still match the definition.
func TestFeasiblePairsTinyRadiusAndFarCoordinates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lo, hi float64
		radius float64
	}{
		{"tiny radius", 0, 1000, 1e-9},
		{"far coordinates", -1e19, 1e19, 25},
		{"far corner", 0, 1e19, 1e-9},
	} {
		inst := &model.Instance{Now: 0}
		for i, x := range []float64{tc.lo, tc.hi} {
			loc := geo.Point{X: x, Y: x}
			inst.Workers = append(inst.Workers, model.Worker{
				ID: model.WorkerID(i), User: model.WorkerID(i), Loc: loc, Radius: tc.radius,
			})
			inst.Tasks = append(inst.Tasks, model.Task{ID: model.TaskID(i), Loc: loc, Valid: 1})
		}
		want := bruteFeasiblePairs(inst, 5)
		if len(want) != 2 {
			t.Fatalf("%s: brute force found %d pairs, want the 2 co-located ones", tc.name, len(want))
		}
		if got := FeasiblePairs(inst, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: FeasiblePairs %v, brute force %v", tc.name, got, want)
		}
		for _, par := range []int{1, 2, 8} {
			if got, _ := TiledFeasiblePairs(inst, 5, par); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s par %d: TiledFeasiblePairs %v, brute force %v", tc.name, par, got, want)
			}
		}
	}
}

func TestFeasiblePairsDeadline(t *testing.T) {
	// One worker, one task 10km away, radius 20: feasibility should
	// depend only on the deadline at 5 km/h (needs 2h).
	inst := &model.Instance{
		Now: 0,
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Point{}, Radius: 20},
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Point{X: 10}, Publish: 0, Valid: 1.5},
		},
	}
	if got := FeasiblePairs(inst, 5); len(got) != 0 {
		t.Errorf("deadline-violating pair reported: %v", got)
	}
	inst.Tasks[0].Valid = 2.5
	if got := FeasiblePairs(inst, 5); len(got) != 1 {
		t.Errorf("feasible pair missing")
	}
}

// TestSolvePairsAuthoritative: Problem.Pairs is the only feasibility
// input the solver reads. On a well-connected instance, where a rescan
// would assign tasks, nil or empty Pairs must assign nothing.
func TestSolvePairsAuthoritative(t *testing.T) {
	dense := randomInstance(12, 12, 3)
	if len(FeasiblePairs(dense, 5)) == 0 {
		t.Fatal("dense instance has no feasible pairs; the probe cannot detect a rescan")
	}
	for _, pairs := range [][]Pair{nil, {}} {
		for _, alg := range append(append([]Algorithm(nil), Algorithms...), MIX) {
			prob := &Problem{Inst: dense, Influence: syntheticInfluence(1), Pairs: pairs}
			if got := Solve(alg, prob).Len(); got != 0 {
				t.Errorf("%v assigned %d without feasible pairs", alg, got)
			}
		}
	}
}

func validate(t *testing.T, set *model.AssignmentSet, inst *model.Instance) {
	t.Helper()
	if err := set.Validate(len(inst.Tasks), len(inst.Workers)); err != nil {
		t.Fatalf("invalid assignment: %v", err)
	}
	// Every assigned pair must be feasible.
	for i, pr := range set.Pairs {
		w := inst.Workers[pr.Worker]
		s := inst.Tasks[pr.Task]
		if !model.Feasible(w, s, inst.Now, 5) {
			t.Fatalf("pair %d (%d,%d) infeasible", i, pr.Worker, pr.Task)
		}
	}
}

func TestAllAlgorithmsProduceValidAssignments(t *testing.T) {
	inst := randomInstance(30, 40, 2)
	prob := &Problem{Inst: inst, Influence: syntheticInfluence(3), Pairs: FeasiblePairs(inst, 5)}
	for _, alg := range Algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			set := Solve(alg, prob)
			validate(t, set, inst)
			if set.Len() == 0 {
				t.Fatal("no assignments on a well-connected instance")
			}
		})
	}
}

func TestFlowAlgorithmsAchieveMaximumCardinality(t *testing.T) {
	// MTA, IA, EIA and DIA all maximize |A| first; they must agree on
	// the assignment size (the max matching) on any instance.
	for seed := uint64(0); seed < 5; seed++ {
		inst := randomInstance(25, 25, 10+seed)
		prob := &Problem{Inst: inst, Influence: syntheticInfluence(seed), Pairs: FeasiblePairs(inst, 5)}
		want := Solve(MTA, prob).Len()
		for _, alg := range []Algorithm{IA, EIA, DIA} {
			if got := Solve(alg, prob).Len(); got != want {
				t.Errorf("seed %d: %v assigned %d, MTA %d", seed, alg, got, want)
			}
		}
	}
}

func TestMICannotExceedFlowCardinality(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		inst := randomInstance(25, 25, 20+seed)
		prob := &Problem{Inst: inst, Influence: syntheticInfluence(seed), Pairs: FeasiblePairs(inst, 5)}
		mta := Solve(MTA, prob).Len()
		mi := Solve(MI, prob).Len()
		if mi > mta {
			t.Errorf("seed %d: MI assigned %d > max matching %d", seed, mi, mta)
		}
	}
}

func TestIAMinimizesPaperCostAmongMaxAssignments(t *testing.T) {
	// IA's secondary objective is to minimize Σ 1/(if+1) over a maximum
	// assignment (the paper's edge cost), which is related to but NOT the
	// same as maximizing Σ if. On this 2×2 instance:
	//   (0→0, 1→1): influences 5, 0.5 → cost 1/6 + 1/1.5 ≈ 0.8333
	//   (0→1, 1→0): influences 1, 4   → cost 1/2 + 1/5   = 0.7000
	// so IA must pick the second despite its lower total influence.
	inst := &model.Instance{
		Now: 0,
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Point{X: 0}, Radius: 100},
			{ID: 1, Loc: geo.Point{X: 1}, Radius: 100},
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Point{X: 2}, Valid: 100},
			{ID: 1, Loc: geo.Point{X: 3}, Valid: 100},
		},
	}
	infl := map[[2]int]float64{
		{0, 0}: 5, {0, 1}: 1,
		{1, 0}: 4, {1, 1}: 0.5,
	}
	prob := &Problem{
		Inst:      inst,
		Influence: func(w, t int) float64 { return infl[[2]int{w, t}] },
		Pairs:     FeasiblePairs(inst, 5),
	}
	set := Solve(IA, prob)
	if set.Len() != 2 {
		t.Fatalf("assigned %d, want 2", set.Len())
	}
	cost := 0.0
	for i := range set.Pairs {
		cost += 1 / (set.Influence[i] + 1)
	}
	if math.Abs(cost-0.7) > 1e-9 {
		t.Errorf("IA paper-cost %v, want 0.7 (the minimum over max assignments)", cost)
	}
	if got := set.TotalInfluence(); math.Abs(got-5) > 1e-9 {
		t.Errorf("IA total influence %v, want 5", got)
	}
}

func TestMIPrefersInfluenceOverCardinality(t *testing.T) {
	// Worker 0 reaches both tasks, worker 1 reaches only task 0. The
	// max-cardinality assignment is {(0,1),(1,0)}; MI instead grabs the
	// single highest-influence pair (0,0) and strands worker 1.
	inst := &model.Instance{
		Now: 0,
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Point{X: 0}, Radius: 100},
			{ID: 1, Loc: geo.Point{X: 0}, Radius: 1},
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Point{X: 0.5}, Valid: 100},
			{ID: 1, Loc: geo.Point{X: 50}, Valid: 100},
		},
	}
	infl := map[[2]int]float64{
		{0, 0}: 10, {0, 1}: 1, {1, 0}: 1,
	}
	prob := &Problem{
		Inst:      inst,
		Influence: func(w, t int) float64 { return infl[[2]int{w, t}] },
		Pairs:     FeasiblePairs(inst, 5),
	}
	// Greedy takes (0,0) with influence 10 first; task 0 is then used, so
	// (1,0) is blocked, and worker 0 being used blocks (0,1). MI strands
	// worker 1 at one assignment while the flow algorithms reach two.
	mi := Solve(MI, prob)
	if mi.Len() != 1 {
		t.Fatalf("MI assigned %d, want 1", mi.Len())
	}
	mta := Solve(MTA, prob)
	if mta.Len() != 2 {
		t.Fatalf("MTA assigned %d, want 2", mta.Len())
	}
	// And MI's AI must exceed MTA's on this instance.
	if mi.AverageInfluence() <= mta.AverageInfluence() {
		t.Errorf("MI AI %v not above MTA AI %v", mi.AverageInfluence(), mta.AverageInfluence())
	}
}

func TestInfluenceOrderingAcrossAlgorithms(t *testing.T) {
	// The paper's headline qualitative result — AI(MI) ≥ AI(IA) ≥
	// AI(MTA) — is empirical, not a per-instance theorem (IA optimizes
	// Σ 1/(if+1), MI is greedy), so assert it in aggregate over seeds.
	var aiMTA, aiIA, aiMI float64
	const seeds = 8
	for seed := uint64(0); seed < seeds; seed++ {
		inst := randomInstance(30, 30, 30+seed)
		prob := &Problem{Inst: inst, Influence: syntheticInfluence(seed * 7), Pairs: FeasiblePairs(inst, 5)}
		aiMTA += Solve(MTA, prob).AverageInfluence()
		aiIA += Solve(IA, prob).AverageInfluence()
		aiMI += Solve(MI, prob).AverageInfluence()
	}
	if aiIA <= aiMTA {
		t.Errorf("aggregate AI: IA %v not above MTA %v", aiIA/seeds, aiMTA/seeds)
	}
	if aiMI <= aiIA {
		t.Errorf("aggregate AI: MI %v not above IA %v", aiMI/seeds, aiIA/seeds)
	}
}

func TestDIAFavorsCloserWorkers(t *testing.T) {
	// Two workers, one task; equal influence; DIA must send the closer
	// worker because F discounts influence with distance.
	inst := &model.Instance{
		Now: 0,
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Point{X: 9}, Radius: 10},
			{ID: 1, Loc: geo.Point{X: 1}, Radius: 10},
		},
		Tasks: []model.Task{{ID: 0, Loc: geo.Point{X: 0}, Valid: 100}},
	}
	prob := &Problem{
		Inst:      inst,
		Influence: func(w, t int) float64 { return 3 },
		Pairs:     FeasiblePairs(inst, 5),
	}
	set := Solve(DIA, prob)
	if set.Len() != 1 || set.Pairs[0].Worker != 1 {
		t.Errorf("DIA chose %+v, want worker 1 (closer)", set.Pairs)
	}
}

func TestEIAPrioritizesLowEntropyTasks(t *testing.T) {
	// One worker, two reachable tasks with equal influence; EIA should
	// take the lower-entropy task (cheaper edge) when only one can be
	// served.
	inst := &model.Instance{
		Now: 0,
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Point{}, Radius: 10},
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Point{X: 1}, Valid: 100, Venue: 0},
			{ID: 1, Loc: geo.Point{X: 1.5}, Valid: 100, Venue: 1},
		},
	}
	entropies := []float64{2.0, 0.1}
	prob := &Problem{
		Inst:      inst,
		Influence: func(w, t int) float64 { return 1 },
		Entropy:   func(t int) float64 { return entropies[t] },
		Pairs:     FeasiblePairs(inst, 5),
	}
	set := Solve(EIA, prob)
	if set.Len() != 1 || set.Pairs[0].Task != 1 {
		t.Errorf("EIA chose %+v, want low-entropy task 1", set.Pairs)
	}
}

func TestEmptyInstances(t *testing.T) {
	for _, alg := range Algorithms {
		prob := &Problem{Inst: &model.Instance{}, Influence: func(w, t int) float64 { return 1 }}
		set := Solve(alg, prob)
		if set.Len() != 0 {
			t.Errorf("%v assigned %d on empty instance", alg, set.Len())
		}
	}
	// Workers but no tasks, and vice versa.
	onlyWorkers := randomInstance(5, 0, 1)
	onlyTasks := randomInstance(0, 5, 1)
	for _, alg := range Algorithms {
		if got := Solve(alg, &Problem{Inst: onlyWorkers}).Len(); got != 0 {
			t.Errorf("%v assigned %d with no tasks", alg, got)
		}
		if got := Solve(alg, &Problem{Inst: onlyTasks}).Len(); got != 0 {
			t.Errorf("%v assigned %d with no workers", alg, got)
		}
	}
}

func TestPrecomputedPairsRespected(t *testing.T) {
	inst := randomInstance(10, 10, 4)
	all := FeasiblePairs(inst, 5)
	if len(all) < 2 {
		t.Skip("instance too sparse for the test")
	}
	// Restrict to a single pair: algorithms may only use it.
	prob := &Problem{Inst: inst, Influence: syntheticInfluence(1), Pairs: all[:1]}
	for _, alg := range Algorithms {
		set := Solve(alg, prob)
		if set.Len() > 1 {
			t.Errorf("%v ignored the precomputed pair restriction", alg)
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, alg := range Algorithms {
		got, err := ParseAlgorithm(alg.String())
		if err != nil || got != alg {
			t.Errorf("round trip failed for %v: %v, %v", alg, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestDeterministicResults(t *testing.T) {
	inst := randomInstance(20, 20, 5)
	prob := &Problem{Inst: inst, Influence: syntheticInfluence(9), Pairs: FeasiblePairs(inst, 5)}
	for _, alg := range Algorithms {
		a := Solve(alg, prob)
		b := Solve(alg, prob)
		if a.Len() != b.Len() {
			t.Fatalf("%v nondeterministic size", alg)
		}
		for i := range a.Pairs {
			if a.Pairs[i] != b.Pairs[i] {
				t.Fatalf("%v nondeterministic pair %d", alg, i)
			}
		}
	}
}
