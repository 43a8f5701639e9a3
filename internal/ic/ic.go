// Package ic implements the Independent Cascade (IC) propagation model
// the paper uses to simulate how task information spreads through the
// social network (Section III-C1).
//
// In IC a newly informed worker gets exactly one chance to inform each
// out-neighbor independently; the edge (u, v) succeeds with the paper's
// in-degree-based probability 1/indeg(v). The forward Monte Carlo
// estimators here serve two purposes: they are the ground truth the
// RRR-based RPO estimator is validated against in tests, and they back
// the propagation example program.
//
// The Monte Carlo estimators (Spread, InformedProb) run their trials on
// a bounded worker pool. Trials are grouped into fixed chunks, each
// chunk drawing from a stream split off the caller's generator by chunk
// index, so the estimates are bit-identical for every Parallelism
// setting (see internal/parallel for the contract).
package ic

import (
	"dita/internal/parallel"
	"dita/internal/randx"
	"dita/internal/socialgraph"
)

// trialChunk is the number of Monte Carlo trials per scheduling chunk.
// Like rrr.sampleChunk it is part of the determinism contract: chunk
// boundaries decide which split stream drives which trial.
const trialChunk = 32

// Model binds a social graph to an edge-probability function.
type Model struct {
	G *socialgraph.Graph
	// Prob returns the probability that u informs v given the edge (u,v)
	// exists. When nil, the paper's default 1/indeg(v) is used.
	Prob func(u, v int32) float64
	// Parallelism bounds the worker goroutines Spread and InformedProb
	// use; <= 0 means runtime.GOMAXPROCS(0). Every setting produces
	// identical estimates for the same input generator state.
	Parallelism int
}

// NewModel returns an IC model over g with the paper's default in-degree
// edge probabilities.
func NewModel(g *socialgraph.Graph) *Model {
	return &Model{G: g}
}

func (m *Model) prob(u, v int32) float64 {
	if m.Prob != nil {
		return m.Prob(u, v)
	}
	return m.G.InformProb(u, v)
}

// cascade is the reusable scratch of one diffusion: the informed marks
// plus the touched list that lets a worker reset them in O(|cascade|)
// instead of O(|W|) between trials.
type cascade struct {
	informed []bool
	touched  []int32
	frontier []int32
	next     []int32
}

func newCascade(n int) *cascade {
	return &cascade{informed: make([]bool, n)}
}

// run executes one IC diffusion from seeds, leaving the informed workers
// marked in c.informed and listed in c.touched. Call clear() before the
// next trial.
func (c *cascade) run(m *Model, seeds []int32, rng *randx.Rand) {
	c.touched = c.touched[:0]
	c.frontier = c.frontier[:0]
	for _, s := range seeds {
		if !c.informed[s] {
			c.informed[s] = true
			c.touched = append(c.touched, s)
			c.frontier = append(c.frontier, s)
		}
	}
	for len(c.frontier) > 0 {
		c.next = c.next[:0]
		for _, u := range c.frontier {
			for _, v := range m.G.Out(u) {
				if c.informed[v] {
					continue
				}
				if rng.Bool(m.prob(u, v)) {
					c.informed[v] = true
					c.touched = append(c.touched, v)
					c.next = append(c.next, v)
				}
			}
		}
		c.frontier, c.next = c.next, c.frontier
	}
}

func (c *cascade) clear() {
	for _, v := range c.touched {
		c.informed[v] = false
	}
}

// Spread estimates the expected number of informed workers (including the
// seeds) over the given number of Monte Carlo trials.
func (m *Model) Spread(seeds []int32, trials int, rng *randx.Rand) float64 {
	if trials <= 0 {
		return 0
	}
	workers := parallel.Workers(m.Parallelism)
	chunks := parallel.NumChunks(trials, trialChunk)
	rngs := make([]randx.Rand, chunks)
	rng.SplitStreamsInto(rngs)
	scratch := make([]*cascade, workers)
	totals := make([]int64, workers)
	parallel.ForChunks(workers, trials, trialChunk, func(worker, chunk, lo, hi int) {
		sc := scratch[worker]
		if sc == nil {
			sc = newCascade(m.G.N())
			scratch[worker] = sc
		}
		crng := &rngs[chunk]
		for t := lo; t < hi; t++ {
			sc.run(m, seeds, crng)
			totals[worker] += int64(len(sc.touched))
			sc.clear()
		}
	})
	var total int64
	for _, t := range totals {
		total += t
	}
	return float64(total) / float64(trials)
}

// InformedProb estimates, for every worker, the probability of being
// informed when src starts the cascade, averaged over the given number of
// Monte Carlo trials. This is the ground-truth counterpart of the RPO
// estimator in internal/rrr.
//
//dita:testonly the reference internal/rrr's tests check Build's RPO estimates against
func (m *Model) InformedProb(src int32, trials int, rng *randx.Rand) []float64 {
	n := m.G.N()
	probs := make([]float64, n)
	if trials <= 0 {
		return probs
	}
	workers := parallel.Workers(m.Parallelism)
	chunks := parallel.NumChunks(trials, trialChunk)
	rngs := make([]randx.Rand, chunks)
	rng.SplitStreamsInto(rngs)
	scratch := make([]*cascade, workers)
	counts := make([][]int32, workers)
	seeds := []int32{src}
	parallel.ForChunks(workers, trials, trialChunk, func(worker, chunk, lo, hi int) {
		sc := scratch[worker]
		if sc == nil {
			sc = newCascade(n)
			scratch[worker] = sc
			counts[worker] = make([]int32, n)
		}
		cnt := counts[worker]
		crng := &rngs[chunk]
		for t := lo; t < hi; t++ {
			sc.run(m, seeds, crng)
			for _, v := range sc.touched {
				cnt[v]++
			}
			sc.clear()
		}
	})
	// Merge the per-worker tallies as integers first: integer addition
	// commutes, so the result is independent of which worker ran which
	// chunk; only then convert to probabilities.
	total := make([]int64, n)
	for _, cnt := range counts {
		if cnt == nil {
			continue
		}
		for i, c := range cnt {
			total[i] += int64(c)
		}
	}
	for i, c := range total {
		probs[i] = float64(c) / float64(trials)
	}
	return probs
}
