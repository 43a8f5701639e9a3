package rrr

import (
	"dita/internal/randx"
	"dita/internal/socialgraph"
)

// CoverageCount returns how many sets contain w — |W|·f_R(w) divided by
// |W|; the greedy informed worker's tests check against it.
func (c *Collection) CoverageCount(w int32) int {
	return int(c.coverOff[w+1] - c.coverOff[w])
}

// SetIDs returns the ids of the RRR sets containing worker w, in
// ascending order. The slice aliases internal storage and must not be
// modified.
func (c *Collection) SetIDs(w int32) []int32 { return c.cover(w) }

// SetMembers returns the members of RRR set id (the root is always
// included). The slice aliases internal storage and must not be
// modified.
func (c *Collection) SetMembers(id int32) []int32 {
	return c.setMembers[c.setOff[id]:c.setOff[id+1]]
}

// Root returns the root worker of RRR set id.
func (c *Collection) Root(id int32) int32 { return c.roots[id] }

// MonteCarloReference estimates Ppro(ws, ·) by brute-force sampling of
// RRR sets without any of the RPO bound machinery; tests use it to verify
// that Build's adaptive schedule converges to the same values.
func MonteCarloReference(g *socialgraph.Graph, ws int32, sets int, seed uint64) []float64 {
	n := g.N()
	out := make([]float64, n)
	if n == 0 || sets <= 0 {
		return out
	}
	rng := randx.New(seed)
	smp := newSampler(g)
	counts := make([]int32, n)
	for j := 0; j < sets; j++ {
		root := int32(rng.Intn(n))
		set := smp.sample(root, rng)
		for _, w := range set {
			if w == ws {
				counts[root]++
				break
			}
		}
	}
	scale := float64(n) / float64(sets)
	for i := range out {
		out[i] = scale * float64(counts[i])
		if out[i] > 1 {
			out[i] = 1
		}
	}
	out[ws] = 0
	return out
}
