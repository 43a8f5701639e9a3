package flow

import "math"

// MinCostMaxFlow computes the minimum-cost maximum s→t flow via
// successive shortest augmenting paths, using Dijkstra on reduced costs
// with Johnson potentials. All edge costs must be non-negative (the
// assignment graphs' costs are in (0, 1]); behaviour is undefined
// otherwise. It returns the flow value and its total cost.
//
// Among all maximum flows this finds one with minimum total cost — which
// is exactly the ITA objective ordering: the primary goal (maximum number
// of assigned tasks) is never sacrificed for the secondary one
// (maximum influence, i.e., minimum cost).
func (g *Network) MinCostMaxFlow(s, t int) (flow int, cost float64) {
	if s == t {
		return 0, 0
	}
	n := g.n
	g.potential = sized(g.potential, n)
	g.dist = sized(g.dist, n)
	g.visited = sized(g.visited, n)
	g.prevEdge = sized(g.prevEdge, n)
	potential, dist, visited, prevEdge := g.potential, g.dist, g.visited, g.prevEdge
	clear(potential)
	pq := &g.pq

	for {
		for i := range dist {
			dist[i] = math.Inf(1)
			visited[i] = false
			prevEdge[i] = -1
		}
		dist[s] = 0
		pq.items = pq.items[:0]
		pq.push(heapItem{node: int32(s), dist: 0})
		for len(pq.items) > 0 {
			it := pq.pop()
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
					pq.push(heapItem{node: e.to, dist: nd})
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			return flow, cost
		}
		// Update potentials; nodes never reached keep dist[t] so reduced
		// costs stay non-negative in later rounds.
		dt := dist[t]
		for v := 0; v < n; v++ {
			d := dist[v]
			if d > dt {
				d = dt
			}
			potential[v] += d
		}
		// Find bottleneck along the shortest path and augment.
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

type heapItem struct {
	node int32
	dist float64
}

// minHeap is a binary min-heap of heapItems ordered by dist. push and
// pop follow container/heap's Push and Pop (its up and down sift rules,
// comparison for comparison), so items of equal dist pop in exactly the
// order container/heap would pop them, without boxing each item in an
// interface.
type minHeap struct {
	items []heapItem
}

// push appends it and sifts it up (container/heap's up).
func (h *minHeap) push(it heapItem) {
	h.items = append(h.items, it)
	items := h.items
	j := len(items) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(items[j].dist < items[i].dist) {
			break
		}
		items[i], items[j] = items[j], items[i]
		j = i
	}
}

// pop swaps the root with the last item, sifts the new root down over
// the rest (container/heap's down) and removes the old root.
func (h *minHeap) pop() heapItem {
	items := h.items
	n := len(items) - 1
	items[0], items[n] = items[n], items[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && items[j2].dist < items[j1].dist {
			j = j2 // right child
		}
		if !(items[j].dist < items[i].dist) {
			break
		}
		items[i], items[j] = items[j], items[i]
		i = j
	}
	it := items[n]
	h.items = items[:n]
	return it
}
