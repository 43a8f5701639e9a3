package socialgraph

import (
	"math"
	"testing"
	"testing/quick"

	"dita/internal/randx"
)

func TestNewBasics(t *testing.T) {
	g, err := New(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 5 {
		t.Fatalf("N=%d M=%d, want 4/5", g.N(), g.M())
	}
	if got := g.Out(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Out(0) = %v, want [1 2]", got)
	}
	if got := g.In(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("In(2) = %v, want [0 1]", got)
	}
	if g.OutDegree(0) != 2 || g.InDegree(0) != 1 {
		t.Errorf("degrees of 0 = out %d in %d, want 2/1", g.OutDegree(0), g.InDegree(0))
	}
}

func TestNewDropsSelfLoopsAndDuplicates(t *testing.T) {
	g, err := New(3, []Edge{{0, 1}, {0, 1}, {1, 1}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Errorf("M = %d, want 2 (dup and self-loop dropped)", g.M())
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	if _, err := New(2, []Edge{{0, 2}}); err == nil {
		t.Error("edge to node 2 in a 2-node graph accepted")
	}
	if _, err := New(2, []Edge{{-1, 0}}); err == nil {
		t.Error("negative endpoint accepted")
	}
	if _, err := New(-1, nil); err == nil {
		t.Error("negative node count accepted")
	}
	// Node ids are int32; a larger count used to reach buildCSR's
	// makeslice and panic (FromWire hands New an untrusted count).
	if _, err := FromWire(Wire{N: math.MaxInt}); err == nil {
		t.Error("node count beyond int32 accepted")
	}
}

func TestHasEdge(t *testing.T) {
	g := MustNew(5, []Edge{{0, 3}, {3, 1}, {1, 4}})
	for _, tc := range []struct {
		u, v int32
		want bool
	}{
		{0, 3, true}, {3, 1, true}, {1, 4, true},
		{3, 0, false}, {0, 1, false}, {4, 4, false},
	} {
		if got := g.HasEdge(tc.u, tc.v); got != tc.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", tc.u, tc.v, got, tc.want)
		}
	}
}

func TestInformProb(t *testing.T) {
	// Node 2 has in-degree 3 → each in-edge informs with probability 1/3.
	g := MustNew(4, []Edge{{0, 2}, {1, 2}, {3, 2}, {2, 0}})
	if got := g.InformProb(0, 2); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("InformProb(0,2) = %v, want 1/3", got)
	}
	if got := g.InformProb(2, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("InformProb(2,0) = %v, want 1 (in-degree 1)", got)
	}
	if got := g.InformProb(0, 1); got != 0 {
		t.Errorf("InformProb into isolated-in node = %v, want 0", got)
	}
}

// TestInAdjacencyTransposesOut pins the CSR invariant both walks rely
// on: In lists exactly the sources of each node's incoming Out edges.
func TestInAdjacencyTransposesOut(t *testing.T) {
	f := func(seed uint64) bool {
		g := generateErdosRenyi(20, 0.15, randx.New(seed))
		in := 0
		for v := int32(0); v < int32(g.N()); v++ {
			for _, u := range g.In(v) {
				if !g.HasEdge(u, v) {
					return false
				}
			}
			in += g.InDegree(v)
		}
		return in == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPreferentialAttachmentShape(t *testing.T) {
	rng := randx.New(42)
	const n, m = 500, 3
	g := GeneratePreferentialAttachment(n, m, rng)
	if g.N() != n {
		t.Fatalf("N = %d, want %d", g.N(), n)
	}
	// Symmetric: every edge has its reverse.
	for _, e := range g.Edges() {
		if !g.HasEdge(e.To, e.From) {
			t.Fatalf("PA graph not symmetric: (%d,%d) present, reverse missing", e.From, e.To)
		}
	}
	// Connected (PA attaches every newcomer to the existing component):
	// the graph is symmetric, so a walk over Out from node 0 reaches all.
	seen := map[int32]bool{0: true}
	for queue := []int32{0}; len(queue) > 0; queue = queue[1:] {
		for _, v := range g.Out(queue[0]) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	if len(seen) != n {
		t.Errorf("PA graph reaches %d of %d nodes from node 0, want all", len(seen), n)
	}
	// Heavy tail: the max degree should far exceed the mean.
	meanDeg := float64(g.M()) / float64(n)
	maxDeg := 0
	for u := int32(0); u < int32(n); u++ {
		if d := g.OutDegree(u); d > maxDeg {
			maxDeg = d
		}
	}
	if float64(maxDeg) < 4*meanDeg {
		t.Errorf("max degree %d vs mean %.1f: degree distribution suspiciously flat", maxDeg, meanDeg)
	}
}

func TestPreferentialAttachmentDeterministic(t *testing.T) {
	a := GeneratePreferentialAttachment(200, 2, randx.New(7))
	b := GeneratePreferentialAttachment(200, 2, randx.New(7))
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	rng := randx.New(3)
	const n = 100
	p := 0.1
	g := generateErdosRenyi(n, p, rng)
	want := p * float64(n) * float64(n-1)
	got := float64(g.M())
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("ER edge count %v, want ~%v", got, want)
	}
}

func TestInformProbSumsToOneOverInNeighbors(t *testing.T) {
	// For every node v with in-degree > 0, Σ_u InformProb(u, v) over its
	// in-neighbors is exactly 1 — the paper's 1/id_e normalization.
	g := GeneratePreferentialAttachment(120, 3, randx.New(21))
	for v := int32(0); v < int32(g.N()); v++ {
		in := g.In(v)
		if len(in) == 0 {
			continue
		}
		sum := 0.0
		for _, u := range in {
			sum += g.InformProb(u, v)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("node %d: in-probabilities sum to %v", v, sum)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := MustNew(0, nil)
	if g.N() != 0 || g.M() != 0 {
		t.Errorf("empty graph N=%d M=%d", g.N(), g.M())
	}
}

// generateErdosRenyi builds a directed G(n, p) graph, an unstructured
// topology for the property tests.
func generateErdosRenyi(n int, p float64, rng *randx.Rand) *Graph {
	var edges []Edge
	for u := int32(0); u < int32(n); u++ {
		for v := int32(0); v < int32(n); v++ {
			if u != v && rng.Bool(p) {
				edges = append(edges, Edge{From: u, To: v})
			}
		}
	}
	return MustNew(n, edges)
}
