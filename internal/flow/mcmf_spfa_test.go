package flow

import (
	"math"
	"testing"

	"dita/internal/randx"
)

// MinCostMaxFlowSPFA computes the same minimum-cost maximum flow as
// MinCostMaxFlow but finds each augmenting path with SPFA (queue-based
// Bellman-Ford) instead of Dijkstra with potentials. SPFA tolerates
// negative edge costs, which makes it the cost reference the tests
// cross-check the Dijkstra variant against, on general networks as well
// as assignment graphs.
func (g *Network) MinCostMaxFlowSPFA(s, t int) (flow int, cost float64) {
	if s == t {
		return 0, 0
	}
	n := g.n
	dist := make([]float64, n)
	inQueue := make([]bool, n)
	prevEdge := make([]int32, n)
	queue := make([]int32, 0, n)

	for {
		for i := range dist {
			dist[i] = math.Inf(1)
			inQueue[i] = false
			prevEdge[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], int32(s))
		inQueue[s] = true
		for len(queue) > 0 {
			u := int(queue[0])
			queue = queue[1:]
			inQueue[u] = false
			du := dist[u]
			for _, id := range g.head[u] {
				e := &g.edges[id]
				if e.cap <= 0 {
					continue
				}
				v := int(e.to)
				if nd := du + e.cost; nd < dist[v]-1e-15 {
					dist[v] = nd
					prevEdge[v] = id
					if !inQueue[v] {
						inQueue[v] = true
						queue = append(queue, e.to)
					}
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			return flow, cost
		}
		bottleneck := int32(math.MaxInt32)
		for v := t; v != s; {
			id := prevEdge[v]
			if g.edges[id].cap < bottleneck {
				bottleneck = g.edges[id].cap
			}
			v = int(g.edges[id^1].to)
		}
		for v := t; v != s; {
			id := prevEdge[v]
			g.edges[id].cap -= bottleneck
			g.edges[id^1].cap += bottleneck
			cost += float64(bottleneck) * g.edges[id].cost
			v = int(g.edges[id^1].to)
		}
		flow += int(bottleneck)
	}
}

// TestSPFAMatchesDijkstraMCMF cross-checks the two MCMF implementations
// on random bipartite assignment graphs: identical flow values and
// identical optimal costs (the chosen assignments may differ when
// several optima exist).
func TestSPFAMatchesDijkstraMCMF(t *testing.T) {
	rng := randx.New(51)
	for trial := 0; trial < 30; trial++ {
		nL, nR := 3+rng.Intn(8), 3+rng.Intn(8)
		type e struct {
			l, r int
			w    float64
		}
		var edges []e
		for l := 0; l < nL; l++ {
			for r := 0; r < nR; r++ {
				if rng.Bool(0.45) {
					edges = append(edges, e{l, r, 0.05 + 0.95*rng.Float64()})
				}
			}
		}
		build := func() (*Network, int, int) {
			g := newNetwork(nL + nR + 2)
			s, tt := 0, nL+nR+1
			for l := 0; l < nL; l++ {
				g.AddEdge(s, 1+l, 1, 0)
			}
			for r := 0; r < nR; r++ {
				g.AddEdge(1+nL+r, tt, 1, 0)
			}
			for _, ed := range edges {
				g.AddEdge(1+ed.l, 1+nL+ed.r, 1, ed.w)
			}
			return g, s, tt
		}
		g1, s, tt := build()
		f1, c1 := g1.MinCostMaxFlow(s, tt)
		g2, _, _ := build()
		f2, c2 := g2.MinCostMaxFlowSPFA(s, tt)
		if f1 != f2 {
			t.Fatalf("trial %d: flow %d (Dijkstra) vs %d (SPFA)", trial, f1, f2)
		}
		if math.Abs(c1-c2) > 1e-9 {
			t.Fatalf("trial %d: cost %v (Dijkstra) vs %v (SPFA)", trial, c1, c2)
		}
	}
}

// TestSPFAOnGeneralNetworks extends the cross-check to non-bipartite
// random networks with capacities above 1.
func TestSPFAOnGeneralNetworks(t *testing.T) {
	rng := randx.New(53)
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(6)
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
		build := func() *Network {
			g := newNetwork(n)
			for _, ed := range edges {
				g.AddEdge(ed.u, ed.v, ed.c, ed.w)
			}
			return g
		}
		f1, c1 := build().MinCostMaxFlow(0, n-1)
		f2, c2 := build().MinCostMaxFlowSPFA(0, n-1)
		if f1 != f2 || math.Abs(c1-c2) > 1e-9 {
			t.Fatalf("trial %d: (%d, %v) vs (%d, %v)", trial, f1, c1, f2, c2)
		}
	}
}

func TestSPFASourceEqualsSink(t *testing.T) {
	g := newNetwork(2)
	g.AddEdge(0, 1, 1, 0.5)
	if f, c := g.MinCostMaxFlowSPFA(0, 0); f != 0 || c != 0 {
		t.Errorf("s==t: flow %d cost %v", f, c)
	}
}
