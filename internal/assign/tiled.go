package assign

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"dita/internal/flow"
	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/parallel"
)

// This file is the tiled instant pipeline: feasibility scanned per geo
// tile and matching solved per connected component, both on the shared
// worker pool, both bit-identical at any worker count.
//
// Tiling rule: tiles are squares whose edge is the instant's
// reachability bound — the largest distance any feasible pair can span,
// min(max worker radius, speed × max remaining deadline) — so a
// worker's feasible tasks all lie in the 3×3 halo around its tile.
// Ownership rule: a pair belongs to exactly one tile, the tile of its
// worker; boundary tasks are mirrored into the candidate scans of every
// neighbouring tile (reads, not writes), so radius-straddling pairs are
// found exactly once and no cross-tile reconciliation exists.
//
// Matching decomposes along the connected components of the bipartite
// feasibility graph: no algorithm ever routes flow (or greedy picks)
// between components, so solving each component on its own compact
// network and merging through the global positional pair order is
// exact, not an approximation. Components are solved concurrently;
// every write lands in component-disjoint state, so the output is
// bit-identical at any worker count, including Solve's inline
// single-worker path.

// TileStats describes the spatial decomposition of one instant.
type TileStats struct {
	// Tiles is the number of occupied tiles of the feasibility scan.
	// The solver never scans, so SolveTiled leaves it zero; callers that
	// ran TiledFeasiblePairs record its tile count here.
	Tiles int `json:"tiles,omitempty"`
	// Components is the number of connected components of the
	// feasibility graph, i.e. the matching's parallelism budget.
	Components int `json:"components,omitempty"`
	// LargestComponent is the pair count of the biggest component — the
	// critical path of the component-parallel solve.
	LargestComponent int `json:"largest_component,omitempty"`
}

// haloInflate grows the tile size slightly beyond the reachability
// bound. The 3×3-halo superset argument is exact in real arithmetic;
// the inflation (1e-7 relative, ~9 decimal orders above float64
// rounding) absorbs the rounding of the bound itself, of the tile
// divisions, and of the deadline comparison, so no boundary pair can
// fall outside the halo by a final ulp.
const haloInflate = 1 + 1e-7

// TiledFeasiblePairs computes the instance's feasible pairs, ordered by
// (worker, task) position, by scanning per-tile candidate sets on up to
// `parallelism` pool workers (<= 0 means all cores; the output is
// bit-identical at any setting). The second result is the number of
// occupied tiles.
func TiledFeasiblePairs(inst *model.Instance, speedKmH float64, parallelism int) ([]Pair, int) {
	if speedKmH <= 0 {
		speedKmH = 5
	}
	nW, nT := len(inst.Workers), len(inst.Tasks)
	if nW == 0 || nT == 0 {
		return nil, 0
	}
	bounds := geo.Rect{Min: inst.Workers[0].Loc, Max: inst.Workers[0].Loc}
	maxRadius := 0.0
	for _, w := range inst.Workers {
		bounds = bounds.Extend(w.Loc)
		if w.Radius > maxRadius {
			maxRadius = w.Radius
		}
	}
	maxExpiry := math.Inf(-1)
	for _, t := range inst.Tasks {
		bounds = bounds.Extend(t.Loc)
		if e := t.Expiry(); e > maxExpiry {
			maxExpiry = e
		}
	}
	// A feasible pair satisfies both d ≤ w.r and now + d/speed ≤ expiry,
	// so its distance is bounded by the smaller of the largest radius and
	// the travel distance the longest remaining deadline allows.
	slackKm := speedKmH * (maxExpiry - inst.Now)
	if !(slackKm > 0) { // also catches NaN
		slackKm = 0
	}
	reach := math.Min(maxRadius, slackKm)
	tl := geo.NewTiling(bounds, reach*haloInflate, maxTilesFor(nW+nT))
	return tiledFeasiblePairs(inst, speedKmH, parallelism, tl)
}

// maxTilesFor bounds the tile-grid size: tiles scale with the entity
// count (the per-tile CSR headers stay a small constant factor of the
// pools), with a floor that keeps small instants from degenerating to
// one giant tile when radii are tiny.
func maxTilesFor(n int) int {
	if n < 256 {
		return 256
	}
	return n
}

// tiledFeasiblePairs is the scan against an explicit tiling — the
// boundary property tests drive it with adversarial tile sizes,
// including the 1×1 degenerate tiling. The tiling must guarantee that
// every feasible pair spans at most one tile size (TiledFeasiblePairs
// sizes it from the reachability bound).
func tiledFeasiblePairs(inst *model.Instance, speedKmH float64, parallelism int, tl geo.Tiling) ([]Pair, int) {
	nW, nT := len(inst.Workers), len(inst.Tasks)
	nTiles := tl.Tiles()

	// Bucket both pools per tile, pool order within a tile — which is
	// ascending position order, the order the merge needs.
	wTile := make([]int32, nW)
	for i, w := range inst.Workers {
		wTile[i] = int32(tl.TileOf(w.Loc))
	}
	tTile := make([]int32, nT)
	for i, t := range inst.Tasks {
		tTile[i] = int32(tl.TileOf(t.Loc))
	}
	wb := geo.NewBuckets(wTile, nTiles)
	tb := geo.NewBuckets(tTile, nTiles)

	// Tiles owning at least one worker, ascending; each owns exactly the
	// pairs of its workers.
	occupied := 0
	var wTiles []int32
	for c := 0; c < nTiles; c++ {
		if wb.Len(c) > 0 {
			wTiles = append(wTiles, int32(c))
		}
		if wb.Len(c) > 0 || tb.Len(c) > 0 {
			occupied++
		}
	}

	// Per-tile scan. Each tile writes only tile-indexed state (its own
	// pair buffer) and worker-indexed spans for its own workers, so the
	// result is independent of scheduling.
	spanLo := make([]int32, nW)
	spanHi := make([]int32, nW)
	tileBufs := make([][]Pair, len(wTiles))
	workers := parallel.Workers(parallelism)
	cands := make([][]int32, workers)
	parallel.For(workers, len(wTiles), func(worker, k int) {
		tile := int(wTiles[k])
		tx, ty := tl.Coords(tile)
		// One candidate list per tile, shared by all its workers: every
		// task of the 3×3 halo, sorted ascending so each worker's output
		// comes out in task-position order.
		cand := cands[worker][:0]
		for yy := ty - 1; yy <= ty+1; yy++ {
			if yy < 0 || yy >= tl.NY {
				continue
			}
			for xx := tx - 1; xx <= tx+1; xx++ {
				if xx < 0 || xx >= tl.NX {
					continue
				}
				cand = append(cand, tb.Group(yy*tl.NX+xx)...)
			}
		}
		slices.Sort(cand)
		cands[worker] = cand
		buf := tileBufs[k][:0]
		for _, wi := range wb.Group(tile) {
			w := inst.Workers[wi]
			lo := int32(len(buf))
			// Negative radii admit nothing; the range check is the
			// squared-distance predicate, then the travel-time deadline on
			// the true distance. These float expressions define
			// feasibility for the whole pipeline.
			if w.Radius >= 0 {
				r2 := w.Radius * w.Radius
				for _, ti := range cand {
					s := inst.Tasks[ti]
					if geo.Dist2(s.Loc, w.Loc) > r2 {
						continue
					}
					d := geo.Dist(w.Loc, s.Loc)
					if inst.Now+d/speedKmH <= s.Expiry() {
						buf = append(buf, Pair{W: wi, T: ti, Dist: d})
					}
				}
			}
			spanLo[wi], spanHi[wi] = lo, int32(len(buf))
		}
		tileBufs[k] = buf
	})

	// Deterministic merge: walk workers in pool order and splice each
	// worker's span out of its tile's buffer, in worker-major order.
	total := 0
	for _, b := range tileBufs {
		total += len(b)
	}
	if total == 0 {
		return nil, occupied
	}
	tileOrd := make([]int32, nTiles)
	for k, c := range wTiles {
		tileOrd[c] = int32(k)
	}
	out := make([]Pair, 0, total)
	for wi := 0; wi < nW; wi++ {
		k := tileOrd[wTile[wi]]
		out = append(out, tileBufs[k][spanLo[wi]:spanHi[wi]]...)
	}
	return out, occupied
}

// SolveTiled runs the selected algorithm over p.Pairs with the matching
// solved per connected component of the feasibility graph on up to
// `parallelism` pool workers: decompose, solve each component on a
// compact network (or greedy pass), and merge by walking the pair list.
// Influence and edge costs are evaluated sequentially up front — Problem
// callbacks are not required to be safe for concurrent use — so the
// parallel phase touches only plain, component-disjoint data. The
// assignment set is bit-identical at any parallelism; the returned
// TileStats describe the decomposition.
func SolveTiled(alg Algorithm, p *Problem, parallelism int) (*model.AssignmentSet, TileStats) {
	pairs := p.Pairs
	var stats TileStats
	if len(pairs) == 0 {
		return &model.AssignmentSet{}, stats
	}
	nW, nT := len(p.Inst.Workers), len(p.Inst.Tasks)

	infl := make([]float64, len(pairs))
	for i, pr := range pairs {
		infl[i] = p.influence(int(pr.W), int(pr.T))
	}
	var cost []float64
	switch alg {
	case IA, EIA, DIA, MIX:
		cost = make([]float64, len(pairs))
		for i, pr := range pairs {
			cost[i] = edgeCost(alg, p, pr, infl[i])
		}
	case MTA, MI:
	default:
		panic(fmt.Sprintf("assign: unknown algorithm %d", int(alg)))
	}

	comps, largest := components(nW, nT, pairs)
	nComp := len(comps.Start) - 1
	stats.Components = nComp
	stats.LargestComponent = largest

	taken := make([]bool, len(pairs))
	localW := make([]int32, nW)
	localT := make([]int32, nT)
	var usedW, usedT []bool
	if alg == MI {
		usedW = make([]bool, nW)
		usedT = make([]bool, nT)
	}
	workers := parallel.Workers(parallelism)
	if workers > nComp {
		workers = nComp
	}
	scratch := make([]*compScratch, workers)
	for i := range scratch {
		scratch[i] = scratchPool.Get().(*compScratch)
	}
	parallel.For(workers, nComp, func(worker, c int) {
		solveComponent(alg, p, pairs, infl, cost, comps.Group(c), localW, localT, usedW, usedT, scratch[worker], taken)
	})
	for _, sc := range scratch {
		scratchPool.Put(sc)
	}
	return collectTaken(pairs, infl, taken), stats
}

// components groups the pair list by connected component of the
// bipartite feasibility graph. It returns the global pair indices
// grouped by component (ascending within each) plus the largest
// component's pair count. Components are numbered by first appearance
// along the pair list, so the grouping — and everything downstream — is
// deterministic for a given pair list.
func components(nW, nT int, pairs []Pair) (comps geo.Buckets, largest int) {
	// Union-find over workers [0, nW) and tasks [nW, nW+nT), union by
	// smaller node id with path compression: the root of a component is
	// its smallest member, always a worker (every component contains at
	// least one pair).
	parent := make([]int32, nW+nT)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, pr := range pairs {
		a, b := find(pr.W), find(int32(nW)+pr.T)
		if a == b {
			continue
		}
		if a < b {
			parent[b] = a
		} else {
			parent[a] = b
		}
	}
	compOf := make([]int32, nW) // indexed by root worker
	for i := range compOf {
		compOf[i] = -1
	}
	nComp := 0
	compIdx := make([]int32, len(pairs))
	for i, pr := range pairs {
		r := find(pr.W)
		c := compOf[r]
		if c < 0 {
			c = int32(nComp)
			compOf[r] = c
			nComp++
		}
		compIdx[i] = c
	}
	comps = geo.NewBuckets(compIdx, nComp)
	for c := 0; c < nComp; c++ {
		largest = max(largest, comps.Len(c))
	}
	return comps, largest
}

// compScratch is the per-pool-worker reusable state of the component
// solves; components touch it one at a time per worker. SolveTiled takes
// one per pool worker from scratchPool and puts it back afterwards, so
// the flow network and buffers carry over from instant to instant.
type compScratch struct {
	wIDs  []int32
	tIDs  []int32
	edges []int
	order []int32
	net   flow.Network
}

var scratchPool = sync.Pool{New: func() any { return new(compScratch) }}

// solveComponent solves one component and marks its chosen pairs in the
// global taken bitmap. All writes are component-disjoint: taken slots
// belong to this component's pairs, localW/localT and usedW/usedT slots
// to its workers and tasks.
func solveComponent(alg Algorithm, p *Problem, pairs []Pair, infl, cost []float64, idx []int32, localW, localT []int32, usedW, usedT []bool, sc *compScratch, taken []bool) {
	if alg == MI {
		// The paper's greedy decomposes exactly: whether a pair is taken
		// depends only on earlier picks sharing its worker or task, which
		// are by definition in the same component.
		order := append(sc.order[:0], idx...)
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
		for _, gi := range order {
			pr := pairs[gi]
			if usedW[pr.W] || usedT[pr.T] {
				continue
			}
			usedW[pr.W] = true
			usedT[pr.T] = true
			taken[gi] = true
		}
		sc.order = order
		return
	}

	// Flow algorithms: build the Figure-4 network over just this
	// component's workers and tasks, edges in global pair order.
	wIDs := sc.wIDs[:0]
	tIDs := sc.tIDs[:0]
	for _, gi := range idx {
		wIDs = append(wIDs, pairs[gi].W)
		tIDs = append(tIDs, pairs[gi].T)
	}
	slices.Sort(wIDs)
	slices.Sort(tIDs)
	wIDs = slices.Compact(wIDs)
	tIDs = slices.Compact(tIDs)
	for li, w := range wIDs {
		localW[w] = int32(li)
	}
	for li, t := range tIDs {
		localT[t] = int32(li)
	}
	nw, nt := len(wIDs), len(tIDs)
	g := &sc.net
	g.Reset(nw + nt + 2)
	s, t := 0, nw+nt+1
	for i := 0; i < nw; i++ {
		g.AddEdge(s, 1+i, 1, 0)
	}
	for j := 0; j < nt; j++ {
		g.AddEdge(1+nw+j, t, 1, 0)
	}
	edges := sc.edges[:0]
	for _, gi := range idx {
		pr := pairs[gi]
		c := 0.0
		if cost != nil {
			c = cost[gi]
		}
		edges = append(edges, g.AddEdge(1+int(localW[pr.W]), 1+nw+int(localT[pr.T]), 1, c))
	}
	switch alg {
	case MTA:
		g.MaxFlow(s, t)
	case MIX:
		g.MinCostFlowNonPositive(s, t)
	default: // IA, EIA, DIA
		g.MinCostMaxFlow(s, t)
	}
	for k, gi := range idx {
		if g.Flow(edges[k]) > 0 {
			taken[gi] = true
		}
	}
	sc.wIDs, sc.tIDs, sc.edges = wIDs, tIDs, edges
}

// collectTaken emits the taken pairs with their evaluated influence in
// global pair-position order, so the output is independent of how
// components were scheduled. Pairs reference the instance by position,
// not by the entities' ID fields: streaming callers keep
// platform-stable IDs in their instances, and every metrics consumer
// indexes Inst.Workers/Inst.Tasks with these values.
func collectTaken(pairs []Pair, infl []float64, taken []bool) *model.AssignmentSet {
	out := &model.AssignmentSet{}
	for i, pr := range pairs {
		if !taken[i] {
			continue
		}
		out.Pairs = append(out.Pairs, model.Assignment{
			Task:   model.TaskID(pr.T),
			Worker: model.WorkerID(pr.W),
		})
		out.Influence = append(out.Influence, infl[i])
		out.TravelKm = append(out.TravelKm, pr.Dist)
	}
	return out
}
