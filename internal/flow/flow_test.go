package flow

import (
	"math"
	"testing"

	"dita/internal/randx"
)

// newNetwork returns an empty network over n nodes.
func newNetwork(n int) *Network {
	g := new(Network)
	g.Reset(n)
	return g
}

func TestMaxFlowKnownNetworks(t *testing.T) {
	t.Run("single edge", func(t *testing.T) {
		g := newNetwork(2)
		e := g.AddEdge(0, 1, 5, 0)
		if got := g.MaxFlow(0, 1); got != 5 {
			t.Fatalf("flow = %d, want 5", got)
		}
		if g.Flow(e) != 5 || g.edges[e].cap != 0 {
			t.Errorf("edge state: flow %d cap %d", g.Flow(e), g.edges[e].cap)
		}
	})
	t.Run("series bottleneck", func(t *testing.T) {
		g := newNetwork(3)
		g.AddEdge(0, 1, 10, 0)
		g.AddEdge(1, 2, 3, 0)
		if got := g.MaxFlow(0, 2); got != 3 {
			t.Fatalf("flow = %d, want 3", got)
		}
	})
	t.Run("parallel paths", func(t *testing.T) {
		g := newNetwork(4)
		g.AddEdge(0, 1, 4, 0)
		g.AddEdge(0, 2, 3, 0)
		g.AddEdge(1, 3, 2, 0)
		g.AddEdge(2, 3, 5, 0)
		if got := g.MaxFlow(0, 3); got != 5 {
			t.Fatalf("flow = %d, want 5", got)
		}
	})
	t.Run("classic CLRS network", func(t *testing.T) {
		// Cormen et al. Fig 26.1: max flow 23.
		g := newNetwork(6)
		g.AddEdge(0, 1, 16, 0)
		g.AddEdge(0, 2, 13, 0)
		g.AddEdge(1, 2, 10, 0)
		g.AddEdge(2, 1, 4, 0)
		g.AddEdge(1, 3, 12, 0)
		g.AddEdge(3, 2, 9, 0)
		g.AddEdge(2, 4, 14, 0)
		g.AddEdge(4, 3, 7, 0)
		g.AddEdge(3, 5, 20, 0)
		g.AddEdge(4, 5, 4, 0)
		if got := g.MaxFlow(0, 5); got != 23 {
			t.Fatalf("flow = %d, want 23", got)
		}
	})
	t.Run("disconnected", func(t *testing.T) {
		g := newNetwork(4)
		g.AddEdge(0, 1, 7, 0)
		g.AddEdge(2, 3, 7, 0)
		if got := g.MaxFlow(0, 3); got != 0 {
			t.Fatalf("flow = %d, want 0", got)
		}
	})
	t.Run("source equals sink", func(t *testing.T) {
		g := newNetwork(2)
		g.AddEdge(0, 1, 1, 0)
		if got := g.MaxFlow(0, 0); got != 0 {
			t.Fatalf("flow = %d, want 0", got)
		}
	})
}

// bruteMaxMatching computes maximum bipartite matching size by
// backtracking over left-node choices — exponential but fine at test
// sizes; the ground truth for unit-capacity flow tests.
func bruteMaxMatching(nL, nR int, adj [][]int) int {
	usedR := make([]bool, nR)
	var rec func(l int) int
	rec = func(l int) int {
		if l == nL {
			return 0
		}
		best := rec(l + 1) // skip l
		for _, r := range adj[l] {
			if !usedR[r] {
				usedR[r] = true
				if v := 1 + rec(l+1); v > best {
					best = v
				}
				usedR[r] = false
			}
		}
		return best
	}
	return rec(0)
}

func TestMaxFlowMatchesBruteForceMatching(t *testing.T) {
	rng := randx.New(17)
	for trial := 0; trial < 30; trial++ {
		nL, nR := 2+rng.Intn(5), 2+rng.Intn(5)
		adj := make([][]int, nL)
		for l := range adj {
			for r := 0; r < nR; r++ {
				if rng.Bool(0.4) {
					adj[l] = append(adj[l], r)
				}
			}
		}
		want := bruteMaxMatching(nL, nR, adj)

		g := newNetwork(nL + nR + 2)
		s, tt := 0, nL+nR+1
		for l := 0; l < nL; l++ {
			g.AddEdge(s, 1+l, 1, 0)
		}
		for r := 0; r < nR; r++ {
			g.AddEdge(1+nL+r, tt, 1, 0)
		}
		for l, rs := range adj {
			for _, r := range rs {
				g.AddEdge(1+l, 1+nL+r, 1, 0)
			}
		}
		if got := g.MaxFlow(s, tt); got != want {
			t.Fatalf("trial %d: max flow %d, brute matching %d", trial, got, want)
		}
	}
}

// bruteMinCostMaxMatching enumerates all maximum matchings and returns
// (maxSize, minCost over max-size matchings).
func bruteMinCostMaxMatching(nL, nR int, cost map[[2]int]float64) (int, float64) {
	usedR := make([]bool, nR)
	bestSize, bestCost := 0, math.Inf(1)
	var rec func(l, size int, c float64)
	rec = func(l, size int, c float64) {
		if l == nL {
			if size > bestSize || (size == bestSize && c < bestCost) {
				bestSize, bestCost = size, c
			}
			return
		}
		rec(l+1, size, c)
		for r := 0; r < nR; r++ {
			if w, ok := cost[[2]int{l, r}]; ok && !usedR[r] {
				usedR[r] = true
				rec(l+1, size+1, c+w)
				usedR[r] = false
			}
		}
	}
	rec(0, 0, 0)
	if bestSize == 0 {
		bestCost = 0
	}
	return bestSize, bestCost
}

func TestMinCostMaxFlowOptimalOnRandomBipartite(t *testing.T) {
	rng := randx.New(23)
	for trial := 0; trial < 40; trial++ {
		nL, nR := 2+rng.Intn(4), 2+rng.Intn(4)
		cost := map[[2]int]float64{}
		for l := 0; l < nL; l++ {
			for r := 0; r < nR; r++ {
				if rng.Bool(0.5) {
					cost[[2]int{l, r}] = rng.Float64() // costs in (0,1), like 1/(if+1)
				}
			}
		}
		wantSize, wantCost := bruteMinCostMaxMatching(nL, nR, cost)

		g := newNetwork(nL + nR + 2)
		s, tt := 0, nL+nR+1
		for l := 0; l < nL; l++ {
			g.AddEdge(s, 1+l, 1, 0)
		}
		for r := 0; r < nR; r++ {
			g.AddEdge(1+nL+r, tt, 1, 0)
		}
		for lr, w := range cost {
			g.AddEdge(1+lr[0], 1+nL+lr[1], 1, w)
		}
		gotSize, gotCost := g.MinCostMaxFlow(s, tt)
		if gotSize != wantSize {
			t.Fatalf("trial %d: flow %d, want %d", trial, gotSize, wantSize)
		}
		if math.Abs(gotCost-wantCost) > 1e-9 {
			t.Fatalf("trial %d: cost %v, want %v (size %d)", trial, gotCost, wantCost, gotSize)
		}
	}
}

func TestMinCostPrefersCheapPath(t *testing.T) {
	// A unit super-source edge bottlenecks the flow to 1; of the two
	// parallel paths the cheap one must carry it.
	g := newNetwork(5)
	g.AddEdge(4, 0, 1, 0) // bottleneck
	g.AddEdge(0, 1, 1, 0.9)
	cheap := g.AddEdge(0, 2, 1, 0.1)
	g.AddEdge(1, 3, 1, 0)
	g.AddEdge(2, 3, 1, 0)
	flow, cost := g.MinCostMaxFlow(4, 3)
	if flow != 1 {
		t.Fatalf("flow = %d, want 1", flow)
	}
	if math.Abs(cost-0.1) > 1e-12 {
		t.Errorf("cost = %v, want 0.1", cost)
	}
	if g.Flow(cheap) != 1 {
		t.Error("cheap edge not used")
	}
}

func TestMinCostNeverSacrificesFlow(t *testing.T) {
	// A tempting cheap edge must not prevent maximum cardinality:
	// L0 can serve R0 (cheap) or R1 (expensive); L1 can only serve R0.
	// Max matching = 2 requires L0→R1 even though L0→R0 is cheaper.
	g := newNetwork(6)
	s, tt := 0, 5
	g.AddEdge(s, 1, 1, 0) // L0
	g.AddEdge(s, 2, 1, 0) // L1
	g.AddEdge(3, tt, 1, 0)
	g.AddEdge(4, tt, 1, 0)
	g.AddEdge(1, 3, 1, 0.01) // L0→R0 cheap
	g.AddEdge(1, 4, 1, 0.99) // L0→R1 expensive
	g.AddEdge(2, 3, 1, 0.5)  // L1→R0
	flow, cost := g.MinCostMaxFlow(s, tt)
	if flow != 2 {
		t.Fatalf("flow = %d, want 2 (primary objective sacrificed)", flow)
	}
	if math.Abs(cost-(0.99+0.5)) > 1e-9 {
		t.Errorf("cost = %v, want 1.49", cost)
	}
}

func TestFlowConservationProperty(t *testing.T) {
	// On random networks, after MaxFlow: for every internal node, inflow
	// equals outflow, and no edge exceeds capacity.
	rng := randx.New(31)
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(6)
		g := newNetwork(n)
		type edgeRec struct{ id, u, v, cap int }
		var recs []edgeRec
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Bool(0.3) {
					c := 1 + rng.Intn(9)
					id := g.AddEdge(u, v, c, 0)
					recs = append(recs, edgeRec{id, u, v, c})
				}
			}
		}
		s, tt := 0, n-1
		total := g.MaxFlow(s, tt)
		net := make([]int, n)
		for _, r := range recs {
			f := g.Flow(r.id)
			if f < 0 || f > r.cap {
				t.Fatalf("edge (%d,%d) flow %d outside [0,%d]", r.u, r.v, f, r.cap)
			}
			net[r.u] -= f
			net[r.v] += f
		}
		if net[s] != -total || net[tt] != total {
			t.Fatalf("terminal imbalance: source %d sink %d total %d", net[s], net[tt], total)
		}
		for v := 1; v < n-1; v++ {
			if net[v] != 0 {
				t.Fatalf("node %d violates conservation: %d", v, net[v])
			}
		}
	}
}

func TestMCMFFlowEqualsMaxFlow(t *testing.T) {
	// Min-cost max-flow must route exactly as much as plain max flow on
	// the same network (primary objective first).
	rng := randx.New(41)
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(5)
		type e struct {
			u, v, c int
			w       float64
		}
		var edges []e
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Bool(0.3) {
					edges = append(edges, e{u, v, 1 + rng.Intn(3), rng.Float64()})
				}
			}
		}
		g1 := newNetwork(n)
		g2 := newNetwork(n)
		for _, ed := range edges {
			g1.AddEdge(ed.u, ed.v, ed.c, ed.w)
			g2.AddEdge(ed.u, ed.v, ed.c, ed.w)
		}
		f1 := g1.MaxFlow(0, n-1)
		f2, _ := g2.MinCostMaxFlow(0, n-1)
		if f1 != f2 {
			t.Fatalf("trial %d: Dinic %d vs MCMF %d", trial, f1, f2)
		}
	}
}

func TestMinCostMaxFlowSourceEqualsSink(t *testing.T) {
	g := newNetwork(2)
	g.AddEdge(0, 1, 1, 0.5)
	f, c := g.MinCostMaxFlow(1, 1)
	if f != 0 || c != 0 {
		t.Errorf("s==t: flow %d cost %v", f, c)
	}
}
