package assign

import (
	"testing"
	"testing/quick"

	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/randx"
)

// quickInstance derives an instance from an arbitrary seed: sizes,
// geometry, radii and deadlines all vary so the property tests explore
// sparse, dense, degenerate and disconnected assignment graphs.
func quickInstance(seed uint64) *model.Instance {
	rng := randx.New(seed)
	nW := 1 + rng.Intn(25)
	nT := 1 + rng.Intn(25)
	extent := 10 + rng.Float64()*90
	inst := &model.Instance{Now: rng.Float64() * 100}
	for i := 0; i < nW; i++ {
		inst.Workers = append(inst.Workers, model.Worker{
			ID: model.WorkerID(i), User: model.WorkerID(i),
			Loc:    geo.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent},
			Radius: rng.Float64() * extent / 2,
		})
	}
	for j := 0; j < nT; j++ {
		inst.Tasks = append(inst.Tasks, model.Task{
			ID:      model.TaskID(j),
			Loc:     geo.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent},
			Publish: inst.Now - rng.Float64()*2,
			Valid:   rng.Float64() * 8,
		})
	}
	return inst
}

// TestPropertyAllAlgorithmsValid: on arbitrary instances every algorithm
// returns a structurally valid assignment whose pairs are all feasible.
func TestPropertyAllAlgorithmsValid(t *testing.T) {
	f := func(seed uint64) bool {
		inst := quickInstance(seed)
		prob := &Problem{Inst: inst, Influence: syntheticInfluence(seed), Pairs: FeasiblePairs(inst, 5)}
		for _, alg := range Algorithms {
			set := Solve(alg, prob)
			if err := set.Validate(len(inst.Tasks), len(inst.Workers)); err != nil {
				t.Logf("seed %d alg %v: %v", seed, alg, err)
				return false
			}
			for _, pr := range set.Pairs {
				if !model.Feasible(inst.Workers[pr.Worker], inst.Tasks[pr.Task], inst.Now, 5) {
					t.Logf("seed %d alg %v: infeasible pair", seed, alg)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFlowCardinalityAgreement: the four flow-based algorithms
// assign exactly the same number of tasks (the maximum matching) on any
// instance, and MI never exceeds it.
func TestPropertyFlowCardinalityAgreement(t *testing.T) {
	f := func(seed uint64) bool {
		inst := quickInstance(seed)
		prob := &Problem{Inst: inst, Influence: syntheticInfluence(seed), Pairs: FeasiblePairs(inst, 5)}
		want := Solve(MTA, prob).Len()
		for _, alg := range []Algorithm{IA, EIA, DIA} {
			if Solve(alg, prob).Len() != want {
				return false
			}
		}
		return Solve(MI, prob).Len() <= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// bruteFeasiblePairs is the definition of the feasible pair set: every
// (worker, task) combination checked in (worker, task) order with the
// production predicate — a negative radius admits nothing, then
// geo.Dist2 ≤ r², then the travel-time deadline on geo.Dist. It does not
// use model.Feasible, which compares d > r and can disagree with the
// squared form at exact boundaries.
func bruteFeasiblePairs(inst *model.Instance, speedKmH float64) []Pair {
	var out []Pair
	for wi, w := range inst.Workers {
		if w.Radius < 0 {
			continue
		}
		r2 := w.Radius * w.Radius
		for ti, s := range inst.Tasks {
			if geo.Dist2(s.Loc, w.Loc) > r2 {
				continue
			}
			d := geo.Dist(w.Loc, s.Loc)
			if inst.Now+d/speedKmH <= s.Expiry() {
				out = append(out, Pair{W: int32(wi), T: int32(ti), Dist: d})
			}
		}
	}
	return out
}

// TestPropertyFeasiblePairsSortedAndComplete: on arbitrary instances
// FeasiblePairs equals the brute-force O(nW·nT) scan — same pairs, same
// distances — and is exactly sorted by (worker, task), as its doc
// comment promises.
func TestPropertyFeasiblePairsSortedAndComplete(t *testing.T) {
	f := func(seed uint64) bool {
		inst := quickInstance(seed)
		got := FeasiblePairs(inst, 5)
		want := bruteFeasiblePairs(inst, 5)
		if len(got) != len(want) {
			t.Logf("seed %d: %d pairs, brute force %d", seed, len(got), len(want))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("seed %d pair %d: %+v, brute force %+v", seed, i, got[i], want[i])
				return false
			}
			if i > 0 && (got[i-1].W > got[i].W ||
				(got[i-1].W == got[i].W && got[i-1].T >= got[i].T)) {
				t.Logf("seed %d: pairs %d,%d out of (worker, task) order", seed, i-1, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAssignmentBoundedByFeasiblePairs: |A| can never exceed the
// number of feasible pairs, workers, or tasks.
func TestPropertyAssignmentBoundedByFeasiblePairs(t *testing.T) {
	f := func(seed uint64) bool {
		inst := quickInstance(seed)
		pairs := FeasiblePairs(inst, 5)
		prob := &Problem{Inst: inst, Influence: syntheticInfluence(seed), Pairs: pairs}
		for _, alg := range Algorithms {
			n := Solve(alg, prob).Len()
			if n > len(pairs) || n > len(inst.Workers) || n > len(inst.Tasks) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
