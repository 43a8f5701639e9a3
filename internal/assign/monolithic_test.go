package assign

import (
	"fmt"
	"sort"

	"dita/internal/flow"
	"dita/internal/model"
)

// solveMonolithic is the pre-decomposition solver — one flow network
// (or one greedy pass) over the whole instance. It is kept as the
// reference the objective-equivalence tests check the decomposed solver
// against: decomposition must preserve cardinality for every algorithm,
// total cost for the min-cost family and the exact matching for the
// greedy.
func solveMonolithic(alg Algorithm, p *Problem, pairs []Pair) *model.AssignmentSet {
	switch alg {
	case MTA:
		return solveMaxFlow(p, pairs)
	case MI:
		return solveGreedyInfluence(p, pairs)
	case IA, EIA, DIA:
		return solveMinCost(alg, p, pairs)
	default:
		panic(fmt.Sprintf("assign: no monolithic solver for algorithm %d", int(alg)))
	}
}

// buildNetwork constructs the Figure-4 flow network. Node layout:
// 0 = source, 1..nW = workers, nW+1..nW+nT = tasks, nW+nT+1 = sink.
// It returns the network, the source/sink ids and the edge id of every
// worker→task pair (aligned with pairs).
func buildNetwork(p *Problem, pairs []Pair, alg Algorithm) (g *flow.Network, s, t int, pairEdges []int) {
	nW, nT := len(p.Inst.Workers), len(p.Inst.Tasks)
	g = new(flow.Network)
	g.Reset(nW + nT + 2)
	s, t = 0, nW+nT+1
	for w := 0; w < nW; w++ {
		g.AddEdge(s, 1+w, 1, 0)
	}
	for j := 0; j < nT; j++ {
		g.AddEdge(1+nW+j, t, 1, 0)
	}
	pairEdges = make([]int, len(pairs))
	for i, pr := range pairs {
		cost := 0.0
		if alg != MTA {
			cost = edgeCost(alg, p, pr, p.influence(int(pr.W), int(pr.T)))
		}
		pairEdges[i] = g.AddEdge(1+int(pr.W), 1+nW+int(pr.T), 1, cost)
	}
	return g, s, t, pairEdges
}

func collect(p *Problem, pairs []Pair, taken func(i int) bool) *model.AssignmentSet {
	out := &model.AssignmentSet{}
	for i, pr := range pairs {
		if !taken(i) {
			continue
		}
		out.Pairs = append(out.Pairs, model.Assignment{
			Task:   model.TaskID(pr.T),
			Worker: model.WorkerID(pr.W),
		})
		out.Influence = append(out.Influence, p.influence(int(pr.W), int(pr.T)))
		out.TravelKm = append(out.TravelKm, pr.Dist)
	}
	return out
}

func solveMaxFlow(p *Problem, pairs []Pair) *model.AssignmentSet {
	g, s, t, pairEdges := buildNetwork(p, pairs, MTA)
	g.MaxFlow(s, t)
	return collect(p, pairs, func(i int) bool { return g.Flow(pairEdges[i]) > 0 })
}

func solveMinCost(alg Algorithm, p *Problem, pairs []Pair) *model.AssignmentSet {
	g, s, t, pairEdges := buildNetwork(p, pairs, alg)
	g.MinCostMaxFlow(s, t)
	return collect(p, pairs, func(i int) bool { return g.Flow(pairEdges[i]) > 0 })
}

// solveGreedyInfluence implements MI: for each task the feasible workers
// are its candidates (step 1); pairs are then taken in descending
// influence order, skipping used workers and tasks (step 2). Ties break
// on (worker, task) index so the result is deterministic.
func solveGreedyInfluence(p *Problem, pairs []Pair) *model.AssignmentSet {
	order := make([]int, len(pairs))
	infl := make([]float64, len(pairs))
	for i := range pairs {
		order[i] = i
		infl[i] = p.influence(int(pairs[i].W), int(pairs[i].T))
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if infl[ia] != infl[ib] {
			return infl[ia] > infl[ib]
		}
		if pairs[ia].W != pairs[ib].W {
			return pairs[ia].W < pairs[ib].W
		}
		return pairs[ia].T < pairs[ib].T
	})
	usedW := make([]bool, len(p.Inst.Workers))
	usedT := make([]bool, len(p.Inst.Tasks))
	taken := make([]bool, len(pairs))
	for _, i := range order {
		pr := pairs[i]
		if usedW[pr.W] || usedT[pr.T] {
			continue
		}
		usedW[pr.W] = true
		usedT[pr.T] = true
		taken[i] = true
	}
	return collect(p, pairs, func(i int) bool { return taken[i] })
}
