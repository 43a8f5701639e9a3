// Package flow implements the network-flow solvers the assignment
// algorithms reduce to (Section IV-A): a Dinic maximum-flow solver for
// the MTA baseline and a successive-shortest-path minimum-cost
// maximum-flow solver (Dijkstra with Johnson potentials) for IA, EIA and
// DIA, whose edge costs are positive reals derived from worker-task
// influence.
//
// Both solvers use a shared adjacency-array representation with paired
// residual edges. Capacities are integers (assignment graphs are unit
// capacity); costs are float64.
package flow

// edge is one directed arc of the residual network; arcs are stored in
// pairs, with e^1 being e's residual twin.
type edge struct {
	to   int32
	cap  int32
	cost float64
}

// Network is a flow network under construction. The zero value is an
// empty network over no nodes; Reset sizes it. A Network keeps its edge
// arrays and its solvers' scratch across Reset, so one reused Network
// solves a stream of networks without allocating once it has grown to
// the largest of them.
type Network struct {
	n     int
	edges []edge
	head  [][]int32 // head[u] lists edge ids leaving u

	// Solver scratch, sized to n on each solve: MinCostMaxFlow uses
	// potential, dist, visited, prevEdge and pq; MinCostFlowNonPositive
	// uses dist, visited (as its in-queue mark), prevEdge and queue;
	// MaxFlow uses level, iter and queue.
	potential, dist    []float64
	visited            []bool
	prevEdge           []int32
	level, iter, queue []int32
	pq                 minHeap
}

// Reset empties the network and sizes it to n nodes, keeping the
// capacity of the edge array and of every adjacency list.
func (g *Network) Reset(n int) {
	g.n = n
	g.edges = g.edges[:0]
	if cap(g.head) < n {
		g.head = append(g.head[:cap(g.head)], make([][]int32, n-cap(g.head))...)
	}
	g.head = g.head[:n]
	for u := range g.head {
		g.head[u] = g.head[u][:0]
	}
}

// sized returns s with length n, reusing its backing array when it is
// large enough. The contents are stale; callers initialize them.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AddEdge adds a directed edge u→v with the given capacity and cost and
// returns its id, which can be passed to Flow after solving. The reverse
// residual edge (capacity 0, cost −cost) is created automatically.
func (g *Network) AddEdge(u, v int, capacity int, cost float64) int {
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: int32(v), cap: int32(capacity), cost: cost})
	g.edges = append(g.edges, edge{to: int32(u), cap: 0, cost: -cost})
	g.head[u] = append(g.head[u], int32(id))
	g.head[v] = append(g.head[v], int32(id+1))
	return id
}

// Flow returns the amount of flow routed through the edge with the given
// id after MaxFlow or MinCostMaxFlow has run.
func (g *Network) Flow(id int) int { return int(g.edges[id^1].cap) }

// MaxFlow computes the maximum s→t flow with Dinic's algorithm and
// returns its value. Edge costs are ignored.
func (g *Network) MaxFlow(s, t int) int {
	if s == t {
		return 0
	}
	g.level = sized(g.level, g.n)
	g.iter = sized(g.iter, g.n)
	g.queue = sized(g.queue, g.n)
	level, iter := g.level, g.iter
	total := 0
	for {
		// BFS level graph. Each node is queued at most once, so the
		// queue is walked by index over n slots.
		for i := range level {
			level[i] = -1
		}
		level[s] = 0
		queue := append(g.queue[:0], int32(s))
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, id := range g.head[u] {
				e := &g.edges[id]
				if e.cap > 0 && level[e.to] < 0 {
					level[e.to] = level[u] + 1
					queue = append(queue, e.to)
				}
			}
		}
		if level[t] < 0 {
			return total
		}
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := g.dfsAugment(s, t, int32(1<<30), level, iter)
			if f == 0 {
				break
			}
			total += int(f)
		}
	}
}

func (g *Network) dfsAugment(u, t int, f int32, level, iter []int32) int32 {
	if u == t {
		return f
	}
	for ; iter[u] < int32(len(g.head[u])); iter[u]++ {
		id := g.head[u][iter[u]]
		e := &g.edges[id]
		if e.cap <= 0 || level[e.to] != level[u]+1 {
			continue
		}
		d := g.dfsAugment(int(e.to), t, min32(f, e.cap), level, iter)
		if d > 0 {
			e.cap -= d
			g.edges[id^1].cap += d
			return d
		}
	}
	return 0
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
