// Package assign implements the task-assignment algorithms of Section IV
// plus the two baselines of the evaluation:
//
//   - MTA — Maximum Task Assignment (Kazemi & Shahabi): max flow only.
//   - IA  — basic Influence-aware Assignment: min-cost max-flow with edge
//     cost 1/(if(w,s)+1).
//   - EIA — Entropy-based IA: cost (s.e+1)/(if(w,s)+1).
//   - DIA — Distance-based IA: cost 1/(F(w,s)·if(w,s)+1) with
//     F = 1 − min(1, d(w,s)/w.r).
//   - MI  — Maximum Influence: ignores the primary goal and greedily
//     maximizes total influence over feasible pairs.
//
// All algorithms share the same spatio-temporal feasibility predicate
// (reachable radius and expiry deadline at a common travel speed) and the
// same flow-network construction (Figure 4): source → workers (cap 1),
// worker → feasible task (cap 1, algorithm-specific cost), task → sink
// (cap 1).
package assign

import (
	"fmt"

	"dita/internal/model"
)

// Algorithm selects an assignment strategy.
type Algorithm int

// The five algorithms of the experimental study, plus the MIX ablation.
const (
	MTA Algorithm = iota
	IA
	EIA
	DIA
	MI
	// MIX is not part of the paper's study: it is the exact
	// maximum-influence assignment — min-cost flow over negated
	// influences, stopping at the first positive-cost augmenting path —
	// against which the paper's greedy MI can be ablated. Component
	// decomposition (see SolveTiled) makes the exact solve tractable at
	// tile scale. Among all maximum-total-influence matchings it picks
	// one of maximum cardinality.
	MIX
)

// Algorithms lists the paper's algorithms in the order its figures do.
// MIX is deliberately absent: the experiments grid iterates this slice,
// and the ablation is opt-in per call, not a new column in every
// figure.
var Algorithms = []Algorithm{MTA, IA, EIA, DIA, MI}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case MTA:
		return "MTA"
	case IA:
		return "IA"
	case EIA:
		return "EIA"
	case DIA:
		return "DIA"
	case MI:
		return "MI"
	case MIX:
		return "MIX"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a name (as printed by String) back to an
// Algorithm, including the MIX ablation that Algorithms omits.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range Algorithms {
		if a.String() == s {
			return a, nil
		}
	}
	if s == MIX.String() {
		return MIX, nil
	}
	return 0, fmt.Errorf("assign: unknown algorithm %q", s)
}

// Pair is one feasible worker-task pair: worker index W (into
// Instance.Workers), task index T (into Instance.Tasks) and their
// distance in kilometres.
type Pair struct {
	W, T int32
	Dist float64
}

// Problem bundles everything an algorithm needs for one time instance.
type Problem struct {
	Inst *model.Instance
	// Influence returns if(w, s) for instance worker index w and task
	// index t. Required by IA, EIA, DIA and MI; MTA ignores it.
	Influence func(w, t int) float64
	// Entropy returns the location entropy of task index t. Only EIA
	// reads it; nil is treated as zero entropy everywhere.
	Entropy func(t int) float64
	// Pairs are the instance's feasible worker-task pairs, as
	// FeasiblePairs or TiledFeasiblePairs return them. They are
	// authoritative: the solver never scans the instance itself, so nil
	// or empty Pairs assign nothing, and several algorithms can share one
	// feasibility computation.
	Pairs []Pair
}

func (p *Problem) influence(w, t int) float64 {
	if p.Influence == nil {
		return 0
	}
	return p.Influence(w, t)
}

// FeasiblePairs computes the available assignments w.A for every worker:
// all (w, s) with d(w.l, s.l) ≤ w.r and now + d/speed ≤ s.p + s.ϕ.
// Pairs are ordered by (worker, task) index. It is the sequential form
// of TiledFeasiblePairs.
func FeasiblePairs(inst *model.Instance, speedKmH float64) []Pair {
	pairs, _ := TiledFeasiblePairs(inst, speedKmH, 1)
	return pairs
}

// edgeCost prices a worker→task edge for the flow-based algorithms from
// the pair's already evaluated influence, so the decomposed solver can
// price edges from its sequential influence pre-pass.
func edgeCost(alg Algorithm, p *Problem, pr Pair, inf float64) float64 {
	switch alg {
	case IA:
		return 1 / (inf + 1)
	case EIA:
		e := 0.0
		if p.Entropy != nil {
			e = p.Entropy(int(pr.T))
		}
		return (e + 1) / (inf + 1)
	case DIA:
		r := p.Inst.Workers[pr.W].Radius
		f := 0.0
		if r > 0 {
			ratio := pr.Dist / r
			if ratio > 1 {
				ratio = 1
			}
			f = 1 - ratio
		}
		return 1 / (f*inf + 1)
	case MIX:
		return -inf
	default:
		return 0
	}
}
