package flow

import (
	"container/heap"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"dita/internal/randx"
)

// This file gates the solvers' exact behaviour, not just their optimal
// values: the assignment pipeline's outputs (and the benchmark digests)
// depend on which optimal flow a solver returns among equal-cost ones,
// so a reused Network must pick the same augmenting paths, ties
// included, as a fresh one and as the container/heap solver it
// replaced.

// minCostMaxFlowBoxed is MinCostMaxFlow as it stood on container/heap,
// allocating its scratch per call: the reference for the typed heap's
// pop order.
func (g *Network) minCostMaxFlowBoxed(s, t int) (flow int, cost float64) {
	if s == t {
		return 0, 0
	}
	n := g.n
	potential := make([]float64, n)
	dist := make([]float64, n)
	visited := make([]bool, n)
	prevEdge := make([]int32, n)
	pq := &boxedHeap{}

	for {
		for i := range dist {
			dist[i] = math.Inf(1)
			visited[i] = false
			prevEdge[i] = -1
		}
		dist[s] = 0
		pq.items = pq.items[:0]
		heap.Push(pq, heapItem{node: int32(s), dist: 0})
		for pq.Len() > 0 {
			it := heap.Pop(pq).(heapItem)
			u := int(it.node)
			if visited[u] {
				continue
			}
			visited[u] = true
			if u == t {
				break
			}
			du := dist[u]
			for _, id := range g.head[u] {
				e := &g.edges[id]
				if e.cap <= 0 {
					continue
				}
				v := int(e.to)
				if visited[v] {
					continue
				}
				nd := du + e.cost + potential[u] - potential[v]
				if nd < dist[v] {
					dist[v] = nd
					prevEdge[v] = id
					heap.Push(pq, heapItem{node: e.to, dist: nd})
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			return flow, cost
		}
		dt := dist[t]
		for v := 0; v < n; v++ {
			d := dist[v]
			if d > dt {
				d = dt
			}
			potential[v] += d
		}
		bottleneck := int32(math.MaxInt32)
		for v := t; v != s; {
			id := prevEdge[v]
			e := &g.edges[id]
			if e.cap < bottleneck {
				bottleneck = e.cap
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

type boxedHeap struct {
	items []heapItem
}

func (h *boxedHeap) Len() int           { return len(h.items) }
func (h *boxedHeap) Less(i, j int) bool { return h.items[i].dist < h.items[j].dist }
func (h *boxedHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *boxedHeap) Push(x any)         { h.items = append(h.items, x.(heapItem)) }
func (h *boxedHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// exactCase is one random assignment-shaped network: source 0 → nL
// workers → pair edges → nR tasks → sink nL+nR+1, unit capacities.
type exactCase struct {
	nL, nR int
	pairs  [][2]int
	cost   []float64
}

// randomExactCase draws a case of 1..40 nodes per side (so a reused
// Network grows and shrinks between cases) at a random density. With
// tied set, pair costs come from {0.25, 0.5, 1}: equal-cost paths
// abound, and every sum the solvers form is exact in binary.
func randomExactCase(rng *randx.Rand, tied bool) exactCase {
	c := exactCase{nL: 1 + rng.Intn(40), nR: 1 + rng.Intn(40)}
	p := []float64{0.05, 0.15, 0.4}[rng.Intn(3)]
	for l := 0; l < c.nL; l++ {
		for r := 0; r < c.nR; r++ {
			if !rng.Bool(p) {
				continue
			}
			c.pairs = append(c.pairs, [2]int{l, r})
			if tied {
				c.cost = append(c.cost, []float64{0.25, 0.5, 1}[rng.Intn(3)])
			} else {
				c.cost = append(c.cost, 0.05+0.95*rng.Float64())
			}
		}
	}
	return c
}

// build resets g to the case's network, pricing pair edges at
// sign × cost, and returns the source and sink.
func (c exactCase) build(g *Network, sign float64) (s, t int) {
	g.Reset(c.nL + c.nR + 2)
	s, t = 0, c.nL+c.nR+1
	for l := 0; l < c.nL; l++ {
		g.AddEdge(s, 1+l, 1, 0)
	}
	for r := 0; r < c.nR; r++ {
		g.AddEdge(1+c.nL+r, t, 1, 0)
	}
	for k, pr := range c.pairs {
		g.AddEdge(1+pr[0], 1+c.nL+pr[1], 1, sign*c.cost[k])
	}
	return s, t
}

// solveResult is a solve's flow value, its cost bits and the flow on
// every forward edge, in insertion order.
type solveResult struct {
	flow  int
	cost  uint64
	flows []int
}

func result(g *Network, flow int, cost float64) solveResult {
	r := solveResult{flow: flow, cost: math.Float64bits(cost)}
	for id := 0; id < len(g.edges); id += 2 {
		r.flows = append(r.flows, g.Flow(id))
	}
	return r
}

// hash feeds the result into a fingerprint.
func (r solveResult) hash(h hash.Hash64) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(r.flow))
	put(r.cost)
	for _, f := range r.flows {
		put(uint64(f))
	}
}

// exactSolvers are the three solvers as the assignment algorithms call
// them: IA/EIA/DIA (MinCostMaxFlow on positive costs), MIX
// (MinCostFlowNonPositive on negated weights) and MTA (MaxFlow).
var exactSolvers = []struct {
	name  string
	sign  float64
	solve func(g *Network, s, t int) (int, float64)
}{
	{"MinCostMaxFlow", 1, (*Network).MinCostMaxFlow},
	{"MinCostFlowNonPositive", -1, (*Network).MinCostFlowNonPositive},
	{"MaxFlow", 1, func(g *Network, s, t int) (int, float64) { return g.MaxFlow(s, t), 0 }},
}

// TestFlowExactOrderBoxedReference checks that MinCostMaxFlow on one
// Network reused across every case returns, edge for edge and bit for
// bit, the flow of the container/heap solver on a fresh network, under
// heavily tied and under continuous costs.
func TestFlowExactOrderBoxedReference(t *testing.T) {
	rng := randx.New(61)
	var warm Network
	for trial := 0; trial < 300; trial++ {
		c := randomExactCase(rng, trial%2 == 0)
		s, tt := c.build(&warm, 1)
		f, cost := warm.MinCostMaxFlow(s, tt)
		got := result(&warm, f, cost)
		ref := new(Network)
		s, tt = c.build(ref, 1)
		f, cost = ref.minCostMaxFlowBoxed(s, tt)
		want := result(ref, f, cost)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%dx%d, %d pairs, tied %v): typed heap (%d, %v) and container/heap (%d, %v) differ in flow, cost or edge flows",
				trial, c.nL, c.nR, len(c.pairs), trial%2 == 0,
				got.flow, math.Float64frombits(got.cost), want.flow, math.Float64frombits(want.cost))
		}
	}
}

// TestFlowExactOrderGolden pins each solver's output on tied-cost cases
// to a fingerprint recorded from the solvers as they stood before
// Network reuse (fresh scratch per call, container/heap). All cases and
// all three solvers share one reused Network, so scratch left stale by
// a larger case or by another solver would show; each solve is also
// compared with the same solve on a fresh Network.
func TestFlowExactOrderGolden(t *testing.T) {
	want := map[string]uint64{
		"MinCostMaxFlow":         0xfd2d9bb01b3c94b2,
		"MinCostFlowNonPositive": 0x03c126c6465d86b6,
		"MaxFlow":                0x45e7d220eef7386d,
	}
	rng := randx.New(67)
	hashes := make([]hash.Hash64, len(exactSolvers))
	for i := range hashes {
		hashes[i] = fnv.New64a()
	}
	var warm Network
	for trial := 0; trial < 200; trial++ {
		c := randomExactCase(rng, true)
		for i, sv := range exactSolvers {
			s, tt := c.build(&warm, sv.sign)
			f, cost := sv.solve(&warm, s, tt)
			got := result(&warm, f, cost)
			fresh := new(Network)
			s, tt = c.build(fresh, sv.sign)
			f, cost = sv.solve(fresh, s, tt)
			if !reflect.DeepEqual(got, result(fresh, f, cost)) {
				t.Fatalf("trial %d (%dx%d, %d pairs): %s on a reused Network differs from a fresh one",
					trial, c.nL, c.nR, len(c.pairs), sv.name)
			}
			got.hash(hashes[i])
		}
	}
	for i, sv := range exactSolvers {
		if got := hashes[i].Sum64(); got != want[sv.name] {
			t.Errorf("%s: fingerprint %#x, want %#x", sv.name, got, want[sv.name])
		}
	}
}

// TestFlowWarmAllocFree checks that a warm Network allocates nothing:
// Reset, the same AddEdge sequence and a solve reuse the edge arrays and
// the solver scratch of the previous round.
func TestFlowWarmAllocFree(t *testing.T) {
	c := randomExactCase(randx.New(71), false)
	for _, sv := range exactSolvers {
		var g Network
		solve := func() {
			s, tt := c.build(&g, sv.sign)
			sv.solve(&g, s, tt)
		}
		solve()
		if allocs := testing.AllocsPerRun(20, solve); allocs != 0 {
			t.Errorf("%s: %v allocations per warm solve, want 0", sv.name, allocs)
		}
	}
}
