package flow

import "math"

// MinCostFlowNonPositive augments along successive cheapest s→t paths —
// found with SPFA (queue-based Bellman-Ford), which tolerates negative
// edge costs — but stops as soon as the cheapest augmenting path has
// strictly positive cost instead of driving the flow to its maximum
// value.
//
// On a network built from zero flow with no negative cycles, successive
// shortest-path costs are non-decreasing, so the stopping rule yields
// the flow of globally minimum total cost over all flow values — and,
// because zero-cost paths are still taken, the largest such flow. With
// worker→task edges priced at the negated pair weight this computes an
// exact maximum-weight matching: maximum total weight first, maximum
// cardinality among the maximum-weight matchings second. It returns the
// flow value and its (non-positive) total cost.
func (g *Network) MinCostFlowNonPositive(s, t int) (flow int, cost float64) {
	if s == t {
		return 0, 0
	}
	n := g.n
	g.dist = sized(g.dist, n)
	g.visited = sized(g.visited, n)
	g.prevEdge = sized(g.prevEdge, n)
	g.queue = sized(g.queue, n)
	dist, inQueue, prevEdge, queue := g.dist, g.visited, g.prevEdge, g.queue

	for {
		for i := range dist {
			dist[i] = math.Inf(1)
			inQueue[i] = false
			prevEdge[i] = -1
		}
		dist[s] = 0
		// FIFO ring over n slots: the in-queue mark keeps at most n
		// nodes queued at once.
		queue[0] = int32(s)
		qHead, qLen := 0, 1
		inQueue[s] = true
		for qLen > 0 {
			u := int(queue[qHead])
			qHead++
			if qHead == n {
				qHead = 0
			}
			qLen--
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
						queue[(qHead+qLen)%n] = e.to
						qLen++
					}
				}
			}
		}
		if math.IsInf(dist[t], 1) || dist[t] > 0 {
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
