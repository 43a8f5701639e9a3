package rrr

import (
	"math"
	"slices"
	"testing"

	"dita/internal/ic"
	"dita/internal/paralleltest"
	"dita/internal/randx"
	"dita/internal/socialgraph"
)

func TestBuildSmallGraphBasics(t *testing.T) {
	g := socialgraph.GeneratePreferentialAttachment(60, 2, randx.New(1))
	c := Build(g, Params{Seed: 1})
	if c.NumSets() == 0 {
		t.Fatal("no RRR sets generated")
	}
	st := c.Stats()
	if st.NumSets != c.NumSets() {
		t.Errorf("stats NumSets %d != collection %d", st.NumSets, c.NumSets())
	}
	if st.Iterations < 1 {
		t.Errorf("no halving iterations recorded")
	}
	// Every propagation probability is a probability.
	for ws := int32(0); ws < int32(g.N()); ws++ {
		wp := c.Propagation(ws)
		if wp[ws] != 0 {
			t.Fatalf("self propagation of %d = %v, want 0", ws, wp[ws])
		}
		for wi, p := range wp {
			if p < 0 || p > 1 {
				t.Fatalf("Ppro(%d,%d) = %v outside [0,1]", ws, wi, p)
			}
		}
	}
}

func TestDegenerateGraphs(t *testing.T) {
	empty := socialgraph.MustNew(0, nil)
	c := Build(empty, Params{Seed: 1})
	if c.NumSets() != 0 {
		t.Errorf("empty graph produced %d sets", c.NumSets())
	}
	single := socialgraph.MustNew(1, nil)
	c = Build(single, Params{Seed: 1})
	if got := c.Propagation(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("single-node propagation = %v", got)
	}
	// No edges: nobody informs anybody.
	isolated := socialgraph.MustNew(5, nil)
	c = Build(isolated, Params{Seed: 1, MaxSets: 1000})
	for ws := int32(0); ws < 5; ws++ {
		for wi, p := range c.Propagation(ws) {
			if p != 0 {
				t.Errorf("isolated graph Ppro(%d,%d) = %v, want 0", ws, wi, p)
			}
		}
	}
}

func TestPropagationMatchesMonteCarloIC(t *testing.T) {
	// Lemma 2 made executable: the RRR-set estimate of Ppro(ws, wi) must
	// agree with forward IC simulation. A large fixed set count keeps the
	// estimator's own noise below the tolerance (≈500k per-root samples
	// /40 roots → std error < 0.005 per entry at 12.5k samples).
	g := socialgraph.GeneratePreferentialAttachment(40, 2, randx.New(3))
	m := ic.NewModel(g)

	for _, ws := range []int32{0, 7, 25} {
		rrrEst := MonteCarloReference(g, ws, 500000, uint64(ws)+99)
		mcEst := m.InformedProb(ws, 20000, randx.New(uint64(ws)+10))
		mcEst[ws] = 0
		for wi := range rrrEst {
			if math.Abs(rrrEst[wi]-mcEst[wi]) > 0.03 {
				t.Errorf("ws=%d wi=%d: RRR %v vs MC %v", ws, wi, rrrEst[wi], mcEst[wi])
			}
		}
	}
}

func TestPropagationSumConsistent(t *testing.T) {
	g := socialgraph.GeneratePreferentialAttachment(50, 2, randx.New(5))
	c := Build(g, Params{Seed: 6})
	for ws := int32(0); ws < int32(g.N()); ws += 5 {
		vec := c.Propagation(ws)
		sum := 0.0
		for _, p := range vec {
			sum += p
		}
		if got := c.PropagationSum(ws); math.Abs(got-sum) > 1e-9 {
			t.Errorf("PropagationSum(%d) = %v, vector sum %v", ws, got, sum)
		}
	}
}

func TestInformedRangeIncludesSelf(t *testing.T) {
	g := socialgraph.GeneratePreferentialAttachment(50, 2, randx.New(7))
	c := Build(g, Params{Seed: 8})
	for ws := int32(0); ws < int32(g.N()); ws += 7 {
		ir := c.InformedRange(ws)
		ps := c.PropagationSum(ws)
		if ir < ps-1e-9 {
			t.Errorf("InformedRange(%d) = %v < PropagationSum %v", ws, ir, ps)
		}
		if ir <= 0 {
			t.Errorf("InformedRange(%d) = %v, want > 0 (worker reaches itself)", ws, ir)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := socialgraph.GeneratePreferentialAttachment(80, 2, randx.New(9))
	a := Build(g, Params{Seed: 10})
	b := Build(g, Params{Seed: 10})
	if a.NumSets() != b.NumSets() {
		t.Fatalf("set counts differ: %d vs %d", a.NumSets(), b.NumSets())
	}
	for ws := int32(0); ws < int32(g.N()); ws += 11 {
		va, vb := a.Propagation(ws), b.Propagation(ws)
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("Ppro(%d,%d) differs across identical runs", ws, i)
			}
		}
	}
}

func TestMaxSetsCapRespected(t *testing.T) {
	g := socialgraph.GeneratePreferentialAttachment(100, 3, randx.New(11))
	c := Build(g, Params{Seed: 12, MaxSets: 500})
	if c.NumSets() > 500 {
		t.Fatalf("cap violated: %d sets", c.NumSets())
	}
	if !c.Stats().Capped {
		t.Error("cap bound the run but Capped is false")
	}
}

func TestGreedyInformedWorkerIsArgmax(t *testing.T) {
	g := socialgraph.GeneratePreferentialAttachment(60, 2, randx.New(13))
	c := Build(g, Params{Seed: 14})
	st := c.Stats()
	best := c.CoverageCount(st.GreedyWorker)
	for w := int32(0); w < int32(g.N()); w++ {
		if c.CoverageCount(w) > best {
			// The recorded greedy worker was the argmax at acceptance
			// time, before the final top-up; allow only a small
			// violation margin from the extra sets.
			excess := float64(c.CoverageCount(w)-best) / float64(c.NumSets())
			if excess > 0.05 {
				t.Errorf("worker %d coverage %d far exceeds greedy worker %d's %d",
					w, c.CoverageCount(w), st.GreedyWorker, best)
			}
		}
	}
}

func TestMonteCarloReferenceAgreesWithBuild(t *testing.T) {
	// Build's adaptive schedule picks its own (smaller) N, so individual
	// entries carry sampling noise; the estimates must still be unbiased.
	// Check the mean absolute deviation against a high-N reference and a
	// loose per-entry bound sized to Build's per-root sample count.
	g := socialgraph.GeneratePreferentialAttachment(40, 2, randx.New(15))
	c := Build(g, Params{Seed: 16, Epsilon: 0.05, MaxSets: 400000})
	for _, ws := range []int32{3, 17} {
		ref := MonteCarloReference(g, ws, 400000, 17)
		est := c.Propagation(ws)
		mad, n := 0.0, 0
		for wi := range ref {
			d := math.Abs(ref[wi] - est[wi])
			if d > 0.12 {
				t.Errorf("ws=%d wi=%d: reference %v vs RPO %v", ws, wi, ref[wi], est[wi])
			}
			mad += d
			n++
		}
		if mad/float64(n) > 0.03 {
			t.Errorf("ws=%d: mean absolute deviation %v too large", ws, mad/float64(n))
		}
	}
}

func TestHubPropagatesMoreThanLeaf(t *testing.T) {
	// Star: hub 0 connected bidirectionally to 20 leaves. The hub's
	// propagation sum should dominate any leaf's.
	var edges []socialgraph.Edge
	for i := int32(1); i <= 20; i++ {
		edges = append(edges, socialgraph.Edge{From: 0, To: i}, socialgraph.Edge{From: i, To: 0})
	}
	g := socialgraph.MustNew(21, edges)
	c := Build(g, Params{Seed: 18})
	hub := c.PropagationSum(0)
	leaf := c.PropagationSum(1)
	if hub <= leaf {
		t.Errorf("hub sum %v not above leaf sum %v", hub, leaf)
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Epsilon != 0.1 || p.O != 1 || p.MaxSets != 1<<18 {
		t.Errorf("defaults = %+v, want ε=0.1 o=1 MaxSets=1<<18", p)
	}
}

func TestBuildParallelismInvariant(t *testing.T) {
	// The headline determinism contract of the parallel sampler: for a
	// fixed Seed the collection — roots, forward and inverted indexes,
	// stats, every unexported byte — is bit-identical at every
	// Parallelism, including the inline sequential path.
	g := socialgraph.GeneratePreferentialAttachment(120, 2, randx.New(21))
	paralleltest.Invariant(t, func(par int) any {
		return Build(g, Params{Seed: 22, Parallelism: par})
	})
}

func TestCSRIndexConsistent(t *testing.T) {
	g := socialgraph.GeneratePreferentialAttachment(70, 2, randx.New(23))
	c := Build(g, Params{Seed: 24, MaxSets: 2000})
	// The inverted index must be exactly the transpose of the forward
	// sets, with ascending ids per worker.
	covered := make(map[int32][]int32)
	for j := int32(0); j < int32(c.NumSets()); j++ {
		members := c.SetMembers(j)
		if len(members) == 0 || members[0] != c.Root(j) {
			t.Fatalf("set %d does not lead with its root", j)
		}
		for _, w := range members {
			covered[w] = append(covered[w], j)
		}
	}
	for w := int32(0); w < int32(g.N()); w++ {
		ids := c.SetIDs(w)
		if !slices.IsSorted(ids) {
			t.Fatalf("cover of worker %d not ascending", w)
		}
		if !slices.Equal(ids, covered[w]) {
			t.Fatalf("cover of worker %d = %v, transpose says %v", w, ids, covered[w])
		}
		if c.CoverageCount(w) != len(ids) {
			t.Fatalf("CoverageCount(%d) = %d, want %d", w, c.CoverageCount(w), len(ids))
		}
	}
}

func TestRootCountsMatchesCover(t *testing.T) {
	g := socialgraph.GeneratePreferentialAttachment(60, 2, randx.New(25))
	c := Build(g, Params{Seed: 26, MaxSets: 3000})
	for ws := int32(0); ws < int32(g.N()); ws += 4 {
		roots, ppro := c.RootCounts(ws)
		if !slices.IsSorted(roots) {
			t.Fatalf("RootCounts(%d) roots not sorted", ws)
		}
		want := make(map[int32]int32)
		for _, id := range c.SetIDs(ws) {
			want[c.Root(id)]++
		}
		if len(roots) != len(want) {
			t.Fatalf("RootCounts(%d): %d distinct roots, want %d", ws, len(roots), len(want))
		}
		scale := float64(g.N()) / float64(c.NumSets())
		for i, r := range roots {
			if p := min(1, scale*float64(want[r])); ppro[i] != p {
				t.Fatalf("RootCounts(%d): root %d (%d sets) Ppro %v, want %v", ws, r, want[r], ppro[i], p)
			}
		}
	}
}
