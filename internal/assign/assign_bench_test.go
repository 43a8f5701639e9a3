package assign

import (
	"testing"

	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/randx"
)

func benchInstance(nW, nT int, seed uint64) *model.Instance {
	rng := randx.New(seed)
	inst := &model.Instance{Now: 0}
	for i := 0; i < nW; i++ {
		inst.Workers = append(inst.Workers, model.Worker{
			ID: model.WorkerID(i), User: model.WorkerID(i),
			Loc:    geo.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300},
			Radius: 25,
		})
	}
	for j := 0; j < nT; j++ {
		inst.Tasks = append(inst.Tasks, model.Task{
			ID:    model.TaskID(j),
			Loc:   geo.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300},
			Valid: 5,
		})
	}
	return inst
}

// BenchmarkFeasiblePairs measures the sequential tiled feasibility scan at the paper's default instance size.
func BenchmarkFeasiblePairs(b *testing.B) {
	inst := benchInstance(1200, 1500, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FeasiblePairs(inst, 5)
	}
}

// BenchmarkSolve measures each algorithm end to end on a paper-scale
// instance with precomputed pairs (the per-instance assignment cost the
// CPU-time figures report).
func BenchmarkSolve(b *testing.B) {
	inst := benchInstance(1200, 1500, 1)
	pairs := FeasiblePairs(inst, 5)
	infl := func(w, t int) float64 {
		h := uint64(w)*0x9e3779b97f4a7c15 ^ uint64(t)*0xbf58476d1ce4e5b9
		h ^= h >> 31
		return float64(h%1000) / 1000
	}
	entropy := func(t int) float64 { return float64(t%7) / 2 }
	for _, alg := range Algorithms {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prob := &Problem{Inst: inst, Influence: infl, Entropy: entropy, Pairs: pairs}
				Solve(alg, prob)
			}
		})
	}
}
