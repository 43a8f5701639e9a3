package geo

import (
	"testing"

	"dita/internal/randx"
)

// BenchmarkGridBuild measures index construction at dataset scale
// (one grid per time instance over the task set).
func BenchmarkGridBuild(b *testing.B) {
	pts := randomPoints(3000, 300, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildGrid(pts, 8)
	}
}

// BenchmarkGridWithin measures one radius query — the per-worker
// feasibility probe (r = 25 km over a 300 km world).
func BenchmarkGridWithin(b *testing.B) {
	pts := randomPoints(3000, 300, 1)
	g := BuildGrid(pts, 8)
	rng := randx.New(2)
	queries := make([]Point, 256)
	for i := range queries {
		queries[i] = Point{rng.Float64() * 300, rng.Float64() * 300}
	}
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Within(queries[i%len(queries)], 25, buf[:0])
	}
}

// BenchmarkBruteWithin is the baseline the grid index replaces.
func BenchmarkBruteWithin(b *testing.B) {
	pts := randomPoints(3000, 300, 1)
	q := Point{150, 150}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bruteWithin(pts, q, 25)
	}
}
