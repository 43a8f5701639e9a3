package rrr

import (
	"testing"

	"dita/internal/randx"
	"dita/internal/socialgraph"
)

// BenchmarkBuild measures the full RPO run (Algorithm 1) on a
// paper-scale social graph.
func BenchmarkBuild(b *testing.B) {
	g := socialgraph.GeneratePreferentialAttachment(2400, 3, randx.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(g, Params{Seed: uint64(i)})
	}
}

// BenchmarkBuildEpsilon shows the cost of tightening the approximation
// guarantee — the ε ablation of the RPO design.
func BenchmarkBuildEpsilon(b *testing.B) {
	g := socialgraph.GeneratePreferentialAttachment(1200, 3, randx.New(1))
	for _, eps := range []float64{0.2, 0.1, 0.05} {
		name := "eps=0.20"
		switch eps {
		case 0.1:
			name = "eps=0.10"
		case 0.05:
			name = "eps=0.05"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Build(g, Params{Epsilon: eps, Seed: uint64(i)})
			}
		})
	}
}

// BenchmarkPropagation measures one worker-propagation vector query
// against a prebuilt collection (the per-worker cost during influence
// evaluation).
func BenchmarkPropagation(b *testing.B) {
	g := socialgraph.GeneratePreferentialAttachment(2400, 3, randx.New(1))
	c := Build(g, Params{Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Propagation(int32(i % g.N()))
	}
}

// BenchmarkPropagationSum measures the AP-metric path.
func BenchmarkPropagationSum(b *testing.B) {
	g := socialgraph.GeneratePreferentialAttachment(2400, 3, randx.New(1))
	c := Build(g, Params{Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PropagationSum(int32(i % g.N()))
	}
}

// BenchmarkBuildParallelism shows RPO scaling over the worker pool on a
// paper-scale graph; "auto" is GOMAXPROCS. Output is bit-identical at
// every setting, so the ratios are pure scheduling gains.
func BenchmarkBuildParallelism(b *testing.B) {
	g := socialgraph.GeneratePreferentialAttachment(2400, 3, randx.New(1))
	for _, bc := range []struct {
		name string
		par  int
	}{{"p=1", 1}, {"p=2", 2}, {"p=auto", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			sets := 0
			for i := 0; i < b.N; i++ {
				c := Build(g, Params{Seed: uint64(i), Parallelism: bc.par})
				sets = c.NumSets()
			}
			b.ReportMetric(float64(sets)*float64(b.N)/b.Elapsed().Seconds(), "sets/sec")
		})
	}
}
