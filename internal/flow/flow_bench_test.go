package flow

import (
	"testing"

	"dita/internal/randx"
)

// buildBipartite creates the assignment-shaped network the algorithms
// solve: source → nL workers → feasible edges (density p) → nR tasks →
// sink, with unit capacities and (0,1] costs.
func buildBipartite(nL, nR int, p float64, seed uint64) (*Network, int, int) {
	rng := randx.New(seed)
	g := newNetwork(nL + nR + 2)
	s, t := 0, nL+nR+1
	for l := 0; l < nL; l++ {
		g.AddEdge(s, 1+l, 1, 0)
	}
	for r := 0; r < nR; r++ {
		g.AddEdge(1+nL+r, t, 1, 0)
	}
	for l := 0; l < nL; l++ {
		for r := 0; r < nR; r++ {
			if rng.Bool(p) {
				g.AddEdge(1+l, 1+nL+r, 1, 0.1+0.9*rng.Float64())
			}
		}
	}
	return g, s, t
}

// BenchmarkDinicMaxFlow measures the MTA substrate: pure max flow on an
// assignment graph at the paper's default scale (|W|=1200, |S|=1500,
// ~40 feasible tasks per worker).
func BenchmarkDinicMaxFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, s, t := buildBipartite(1200, 1500, 40.0/1500, uint64(i))
		b.StartTimer()
		g.MaxFlow(s, t)
	}
}

// BenchmarkMinCostMaxFlow measures the IA/EIA/DIA substrate on the same
// graph shape; the gap to BenchmarkDinicMaxFlow is the price of the
// influence-optimal secondary objective.
func BenchmarkMinCostMaxFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, s, t := buildBipartite(1200, 1500, 40.0/1500, uint64(i))
		b.StartTimer()
		g.MinCostMaxFlow(s, t)
	}
}

// BenchmarkMCMFDensity sweeps feasible-pair density — the quantity the
// r and ϕ sweeps really change.
func BenchmarkMCMFDensity(b *testing.B) {
	for _, deg := range []int{10, 40, 160} {
		b.Run(benchName("deg", deg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, s, t := buildBipartite(600, 750, float64(deg)/750, uint64(i))
				b.StartTimer()
				g.MinCostMaxFlow(s, t)
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
