package flow

import (
	"math"
	"math/rand"
	"testing"
)

// bruteMaxWeight enumerates all matchings of a small bipartite weight
// matrix (negative entries mean "no edge") and returns the maximum
// total weight and, among maximum-weight matchings, the maximum
// cardinality.
func bruteMaxWeight(w [][]float64, nT int) (weight float64, card int) {
	nW := len(w)
	bestW, bestC := 0.0, 0
	var rec func(wi int, usedT int, sumW float64, c int)
	rec = func(wi int, usedT int, sumW float64, c int) {
		if wi == nW {
			if sumW > bestW+1e-12 || (math.Abs(sumW-bestW) <= 1e-12 && c > bestC) {
				bestW, bestC = sumW, c
			}
			return
		}
		rec(wi+1, usedT, sumW, c) // leave worker wi unmatched
		for t := 0; t < nT; t++ {
			if usedT&(1<<t) != 0 || w[wi][t] < 0 {
				continue
			}
			rec(wi+1, usedT|(1<<t), sumW+w[wi][t], c+1)
		}
	}
	rec(0, 0, 0, 0)
	return bestW, bestC
}

func TestMinCostFlowNonPositiveMaxWeightMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nW, nT := 1+rng.Intn(6), 1+rng.Intn(6)
		w := make([][]float64, nW)
		for i := range w {
			w[i] = make([]float64, nT)
			for j := range w[i] {
				switch rng.Intn(4) {
				case 0:
					w[i][j] = -1 // no edge
				case 1:
					w[i][j] = 0 // feasible but worthless
				default:
					w[i][j] = rng.Float64() * 3
				}
			}
		}
		g := newNetwork(nW + nT + 2)
		s, snk := 0, nW+nT+1
		for i := 0; i < nW; i++ {
			g.AddEdge(s, 1+i, 1, 0)
		}
		for j := 0; j < nT; j++ {
			g.AddEdge(1+nW+j, snk, 1, 0)
		}
		var pairEdges []int
		var pairW []float64
		for i := 0; i < nW; i++ {
			for j := 0; j < nT; j++ {
				if w[i][j] < 0 {
					continue
				}
				pairEdges = append(pairEdges, g.AddEdge(1+i, 1+nW+j, 1, -w[i][j]))
				pairW = append(pairW, w[i][j])
			}
		}
		flow, cost := g.MinCostFlowNonPositive(s, snk)
		got := -cost
		wantW, wantC := bruteMaxWeight(w, nT)
		if math.Abs(got-wantW) > 1e-9 {
			t.Fatalf("trial %d: total weight %v, brute force %v", trial, got, wantW)
		}
		if flow != wantC {
			t.Fatalf("trial %d: flow %d, want max cardinality among max weight %d", trial, flow, wantC)
		}
		// The per-edge flows must re-derive the reported totals.
		sumW, sumF := 0.0, 0
		for k, id := range pairEdges {
			if g.Flow(id) > 0 {
				sumW += pairW[k]
				sumF++
			}
		}
		if math.Abs(sumW-got) > 1e-9 || sumF != flow {
			t.Fatalf("trial %d: edge flows sum to (%v, %d), reported (%v, %d)", trial, sumW, sumF, got, flow)
		}
	}
}

// TestMinCostFlowNonPositiveTakesZeroCostPaths pins the tie-break: with
// all weights zero the matching still has maximum cardinality, so the
// variant degrades to plain max flow rather than assigning nothing.
func TestMinCostFlowNonPositiveTakesZeroCostPaths(t *testing.T) {
	build := func() (*Network, int, int) {
		g := newNetwork(6)
		g.AddEdge(0, 1, 1, 0)
		g.AddEdge(0, 2, 1, 0)
		g.AddEdge(3, 5, 1, 0)
		g.AddEdge(4, 5, 1, 0)
		g.AddEdge(1, 3, 1, 0)
		g.AddEdge(1, 4, 1, 0)
		g.AddEdge(2, 3, 1, 0)
		return g, 0, 5
	}
	g, s, snk := build()
	flow, cost := g.MinCostFlowNonPositive(s, snk)
	ref, _, _ := build()
	want := ref.MaxFlow(0, 5)
	if flow != want || cost != 0 {
		t.Fatalf("zero-weight matching: flow %d cost %v, want flow %d cost 0", flow, cost, want)
	}
}
