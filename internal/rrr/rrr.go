// Package rrr implements the Random reverse reachable-based Propagation
// Optimization (RPO) algorithm of Section III-C2 and its feasibility
// machinery (Section III-E): random reverse-reachable (RRR) set sampling
// under the Independent Cascade model, the iteration-based lower bound
// NR(k) (Lemma 6), the threshold-based lower bound N'R(γ) (Lemma 5), the
// greedy informed worker (Definition 8), and the resulting worker
// propagation estimates Ppro(ws, wi) (Equation 3).
//
// Sampling is parallel and deterministic: sets are generated in fixed
// chunks of sampleChunk, each chunk driven by its own split stream of
// the run's seed, so the collection is bit-identical for every
// Params.Parallelism setting (see internal/parallel for the contract).
package rrr

import (
	"fmt"
	"math"
	"slices"

	"dita/internal/parallel"
	"dita/internal/randx"
	"dita/internal/socialgraph"
)

// Params configures the RPO algorithm. Zero values select the paper's
// defaults (ε = 0.1, o = 1) with a practical memory cap.
type Params struct {
	// Epsilon is the approximation parameter ε; the estimate is a
	// (1−ε)-approximation with high probability. Default 0.1.
	Epsilon float64 `json:"epsilon"`
	// O sets the failure probability λ = 1/|W|^o. Default 1.
	O float64 `json:"o"`
	// MaxSets caps the total number of RRR sets generated, bounding
	// memory on large graphs. Default 1 << 18. The Stats record whether
	// the cap bound the theoretical requirement.
	MaxSets int `json:"max_sets"`
	// Seed drives all sampling. Two runs with equal Params over the same
	// graph produce identical estimates; the result does not depend on
	// Parallelism.
	Seed uint64 `json:"seed"`
	// Parallelism bounds the sampling worker goroutines; <= 0 means
	// runtime.GOMAXPROCS(0). Any setting yields a bit-identical
	// collection because every sample chunk draws from a stream derived
	// from its chunk index, not from the goroutine that runs it.
	Parallelism int `json:"parallelism,omitempty"`
}

func (p Params) withDefaults() Params {
	if p.Epsilon <= 0 {
		p.Epsilon = 0.1
	}
	if p.O <= 0 {
		p.O = 1
	}
	if p.MaxSets <= 0 {
		p.MaxSets = 1 << 18
	}
	return p
}

// sampleChunk is the number of RRR sets one scheduling chunk generates.
// It is part of the determinism contract: changing it changes which
// stream drives which set, and therefore the sampled collection.
const sampleChunk = 64

// Stats reports how the RPO run unfolded; the benchmark harness prints
// them and tests assert on them.
type Stats struct {
	NumSets      int     `json:"num_sets"`      // |R| finally used
	TargetSets   int     `json:"target_sets"`   // max(N'R(γ), NR(ki)) before capping
	Ki           float64 `json:"ki"`            // the accepted test value k_i
	NOptP        float64 `json:"n_opt_p"`       // N^opt_p = |W|·f_R(w^θ_s) at acceptance
	GreedyWorker int32   `json:"greedy_worker"` // the greedy informed worker w^θ_s
	SigmaLower   float64 `json:"sigma_lower"`   // derived lower bound on σ(w^τ_s)
	Capped       bool    `json:"capped"`        // true when MaxSets bound the requirement
	Iterations   int     `json:"iterations"`    // halving iterations performed
}

// Collection is a materialized family R of RRR sets over a social graph
// plus the inverted index needed to answer propagation queries. Build it
// once per (graph, time instance) and query propagation vectors for any
// number of source workers. All storage is flat CSR-style arrays, so a
// collection is a handful of allocations regardless of |R|.
type Collection struct {
	g *socialgraph.Graph
	// roots[j] is the uniformly chosen root of set j.
	roots []int32
	// Forward index: the members of set j are
	// setMembers[setOff[j]:setOff[j+1]] (the root is always a member).
	setOff     []int32
	setMembers []int32
	// Inverted index: the ids of the sets containing worker w are
	// coverIDs[coverOff[w]:coverOff[w+1]], in ascending set-id order.
	coverOff []int32
	coverIDs []int32
	stats    Stats
}

// cover returns the ids of the sets containing worker w (ascending).
func (c *Collection) cover(w int32) []int32 {
	return c.coverIDs[c.coverOff[w]:c.coverOff[w+1]]
}

// builder accumulates RRR sets across the adaptive schedule of Build.
// It owns one sampler per worker goroutine plus per-chunk member
// buffers that are recycled batch to batch, so steady-state sampling
// allocates only when the flat arrays grow.
type builder struct {
	g        *socialgraph.Graph
	n        int
	workers  int
	samplers []*sampler

	roots   []int32
	setLen  []int32 // member count of each set, filled per chunk
	members []int32 // flat members in set order, merged after each batch
	// coverage[w] = number of accumulated sets containing w.
	coverage []int32
	// chunkBufs[c] holds chunk c's members of the current batch until
	// the sequential merge; the underlying arrays are reused.
	chunkBufs [][]int32
	// rngs[c] is chunk c's stream for the current batch, reseeded in
	// place batch to batch.
	rngs []randx.Rand
}

func newBuilder(g *socialgraph.Graph, workers int) *builder {
	b := &builder{
		g:        g,
		n:        g.N(),
		workers:  workers,
		samplers: make([]*sampler, workers),
		coverage: make([]int32, g.N()),
	}
	for i := range b.samplers {
		b.samplers[i] = newSampler(g)
	}
	return b
}

// reserve pre-sizes the per-set arrays for a target of `want` total sets
// (the Lemma 6 / Lemma 5 requirement), so the append loops below do not
// re-grow through intermediate capacities.
func (b *builder) reserve(want int) {
	if extra := want - len(b.roots); extra > 0 {
		b.roots = slices.Grow(b.roots, extra)
		b.setLen = slices.Grow(b.setLen, extra)
	}
}

// addSets samples `count` additional RRR sets. Chunks of sampleChunk
// sets are scheduled over the worker pool; chunk c of this batch draws
// root choices and traversals from rng.Split(c), derived sequentially
// up front so the collection does not depend on scheduling order.
func (b *builder) addSets(count int, rng *randx.Rand) {
	if count <= 0 {
		return
	}
	base := len(b.roots)
	b.roots = append(b.roots, make([]int32, count)...)
	b.setLen = append(b.setLen, make([]int32, count)...)

	chunks := parallel.NumChunks(count, sampleChunk)
	if len(b.rngs) < chunks {
		b.rngs = make([]randx.Rand, chunks)
	}
	rng.SplitStreamsInto(b.rngs[:chunks])
	for len(b.chunkBufs) < chunks {
		b.chunkBufs = append(b.chunkBufs, nil)
	}

	parallel.ForChunks(b.workers, count, sampleChunk, func(worker, c, lo, hi int) {
		smp := b.samplers[worker]
		crng := &b.rngs[c]
		buf := b.chunkBufs[c][:0]
		for j := lo; j < hi; j++ {
			root := int32(crng.Intn(b.n))
			set := smp.sample(root, crng)
			b.roots[base+j] = root
			b.setLen[base+j] = int32(len(set))
			buf = append(buf, set...)
		}
		b.chunkBufs[c] = buf
	})

	// Sequential merge: concatenate chunk members in chunk order (which
	// is set order) and fold them into the coverage tally.
	total := 0
	for c := 0; c < chunks; c++ {
		total += len(b.chunkBufs[c])
	}
	b.members = slices.Grow(b.members, total)
	for c := 0; c < chunks; c++ {
		b.members = append(b.members, b.chunkBufs[c]...)
		for _, w := range b.chunkBufs[c] {
			b.coverage[w]++
		}
	}
}

// reset discards every accumulated set (Algorithm 1 line 13) while
// keeping all buffers for the next, larger batch.
func (b *builder) reset() {
	b.roots = b.roots[:0]
	b.setLen = b.setLen[:0]
	b.members = b.members[:0]
	clear(b.coverage)
}

// finish freezes the accumulated sets into a queryable Collection,
// building the forward offsets and the inverted CSR cover index with
// one counting pass each.
func (b *builder) finish(c *Collection, st Stats) {
	numSets := len(b.roots)
	c.roots = b.roots
	c.setOff = make([]int32, numSets+1)
	for j, l := range b.setLen {
		c.setOff[j+1] = c.setOff[j] + l
	}
	c.setMembers = b.members

	c.coverOff = make([]int32, b.n+1)
	for w, cnt := range b.coverage {
		c.coverOff[w+1] = c.coverOff[w] + cnt
	}
	c.coverIDs = make([]int32, len(b.members))
	cursor := make([]int32, b.n)
	copy(cursor, c.coverOff[:b.n])
	for j := 0; j < numSets; j++ {
		for _, w := range b.members[c.setOff[j]:c.setOff[j+1]] {
			c.coverIDs[cursor[w]] = int32(j)
			cursor[w]++
		}
	}

	st.NumSets = numSets
	c.stats = st
}

// Build runs the full RPO procedure (Algorithm 1) over g and returns the
// resulting collection. The algorithm iterates k from |W|/2 downward,
// generating NR(k) sets per iteration, until the greedy informed worker's
// coverage N^opt_p crosses the threshold γ = (1+ε*)·k; then it tops the
// collection up to the threshold-based bound N'R(γ).
func Build(g *socialgraph.Graph, p Params) *Collection {
	p = p.withDefaults()
	n := g.N()
	c := &Collection{g: g, coverOff: make([]int32, n+1)}
	if n <= 1 {
		// Zero or one worker: nothing can propagate anywhere. The
		// forward index is still present, over zero sets.
		c.setOff = []int32{0}
		return c
	}
	rng := randx.New(p.Seed)
	W := float64(n)
	epsStar := math.Sqrt2 * p.Epsilon
	// λ* = 1/(|W|^o · log2|W|), λ = 1/|W|^o  (Section III-E).
	log2W := math.Log2(W)
	if log2W < 1 {
		log2W = 1
	}
	lnInvLambdaStar := p.O*math.Log(W) + math.Log(log2W)
	lnInvLambda := p.O * math.Log(W)

	b := newBuilder(g, parallel.Workers(p.Parallelism))

	var st Stats
	accepted := false
	// K = {|W|/2, |W|/4, ..., 2}; the paper runs T(ki) on O(log2|W|)
	// values of K.
	for k := W / 2; k >= 2; k /= 2 {
		st.Iterations++
		// NR(k) per Lemma 6.
		nrk := (2 + 2*epsStar/3) * (math.Log(W) + lnInvLambdaStar) * W / (epsStar * epsStar * k)
		want := int(math.Ceil(nrk))
		if want > p.MaxSets {
			want = p.MaxSets
			st.Capped = true
		}
		b.reserve(want)
		if add := want - len(b.roots); add > 0 {
			b.addSets(add, rng)
		}
		// N^opt_p = |W| · max_w f_R(w)  (greedy informed worker).
		best, bestCov := int32(0), int32(-1)
		for w := int32(0); w < int32(n); w++ {
			if b.coverage[w] > bestCov {
				best, bestCov = w, b.coverage[w]
			}
		}
		nOptP := W * float64(bestCov) / float64(len(b.roots))
		gamma := (1 + epsStar) * k
		if nOptP >= gamma {
			// σ(w^τ_s) ≥ N^opt_p · ki/γ with probability ≥ 1−λ*.
			sigma := nOptP * k / gamma
			st.Ki = k
			st.NOptP = nOptP
			st.GreedyWorker = best
			st.SigmaLower = sigma
			// N'R(γ) per Lemma 5.
			nr := 2 * W * lnInvLambda / (sigma * p.Epsilon * p.Epsilon)
			st.TargetSets = int(math.Ceil(nr))
			accepted = true
			break
		}
		// Test failed: discard R as Algorithm 1 prescribes (line 13) and
		// halve k. (A fresh batch of the larger size is generated next
		// round; regeneration keeps the estimator's independence
		// assumptions intact.)
		b.reset()
	}
	if !accepted {
		// Every test failed, meaning even σ(w^τ_s) < 2: the graph barely
		// propagates. Fall back to the most conservative bound with
		// σ = 1 (a worker always reaches itself).
		st.Ki = 2
		st.SigmaLower = 1
		st.TargetSets = int(math.Ceil(2 * W * lnInvLambda / (p.Epsilon * p.Epsilon)))
	}
	want := st.TargetSets
	if want > p.MaxSets {
		want = p.MaxSets
		st.Capped = true
	}
	b.reserve(want)
	if add := want - len(b.roots); add > 0 {
		b.addSets(add, rng)
	}
	b.finish(c, st)
	return c
}

// Stats returns the run statistics recorded by Build.
func (c *Collection) Stats() Stats { return c.stats }

// NumSets returns |R|.
func (c *Collection) NumSets() int { return len(c.roots) }

// Graph returns the underlying social graph.
func (c *Collection) Graph() *socialgraph.Graph { return c.g }

// Propagation returns the worker-propagation vector WP_ws: for every
// worker wi, the estimated probability Ppro(ws, wi) that wi is informed
// when ws knows the task (Equation 3):
//
//	Ppro(ws, wi) = |W|/N · #{ sets rooted at wi that contain ws }.
//
// The self entry Ppro(ws, ws) is forced to zero because the influence sum
// ranges over W \ {ws}.
func (c *Collection) Propagation(ws int32) []float64 {
	n := c.g.N()
	out := make([]float64, n)
	N := len(c.roots)
	if N == 0 {
		return out
	}
	scale := float64(n) / float64(N)
	for _, id := range c.cover(ws) {
		out[c.roots[id]] += scale
	}
	out[ws] = 0
	// Probabilities cannot exceed 1; the unbiased estimator can overshoot
	// on small N, so clamp for downstream stability.
	for i := range out {
		if out[i] > 1 {
			out[i] = 1
		}
	}
	return out
}

// RootCounts returns, for every distinct root among the sets containing
// ws, that root and how many such sets it roots, sorted by ascending
// root id so float accumulation over the result is deterministic. It is
// the compact form of the cover that the influence evaluator consumes.
func (c *Collection) RootCounts(ws int32) (roots, counts []int32) {
	ids := c.cover(ws)
	if len(ids) == 0 {
		return nil, nil
	}
	rs := make([]int32, len(ids))
	for i, id := range ids {
		rs[i] = c.roots[id]
	}
	slices.Sort(rs)
	// Run-length encode in place.
	k := 0
	counts = make([]int32, 0, len(rs))
	for i := 0; i < len(rs); {
		j := i
		for j < len(rs) && rs[j] == rs[i] {
			j++
		}
		rs[k] = rs[i]
		counts = append(counts, int32(j-i))
		k++
		i = j
	}
	return rs[:k], counts
}

// PropagationSum returns Σ_{wi ≠ ws} Ppro(ws, wi) without materializing
// the vector; it is the Average Propagation (AP) contribution of ws and a
// hot path of the benchmark harness.
func (c *Collection) PropagationSum(ws int32) float64 {
	N := len(c.roots)
	if N == 0 {
		return 0
	}
	roots, ns := c.RootCounts(ws)
	scale := float64(c.g.N()) / float64(N)
	sum := 0.0
	for i, root := range roots {
		if root == ws {
			continue
		}
		v := scale * float64(ns[i])
		if v > 1 {
			v = 1
		}
		sum += v
	}
	return sum
}

// InformedRange returns σ(ws), the estimated fraction-scaled number of
// workers informed by ws (Definition 6): Σ_i Ppro(ws, wi), this time
// including the root-reaches-itself term the definition sums over.
func (c *Collection) InformedRange(ws int32) float64 {
	N := len(c.roots)
	if N == 0 {
		return 0
	}
	_, ns := c.RootCounts(ws)
	scale := float64(c.g.N()) / float64(N)
	sum := 0.0
	for _, cnt := range ns {
		v := scale * float64(cnt)
		if v > 1 {
			v = 1
		}
		sum += v
	}
	return sum
}

// CoverageCount returns how many sets contain w — |W|·f_R(w) divided by
// |W|; exposed for tests of the greedy informed worker.
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

// sampler generates one RRR set: a reverse BFS from a root where each
// in-edge (u → root-side node v) is traversed with probability
// 1/indeg(v), which is exactly sampling a live-edge subgraph of the IC
// model and collecting the nodes that can reach the root.
type sampler struct {
	g       *socialgraph.Graph
	visited []int32 // visit stamps to avoid clearing an array per sample
	stamp   int32
	queue   []int32
	out     []int32
}

func newSampler(g *socialgraph.Graph) *sampler {
	return &sampler{g: g, visited: make([]int32, g.N())}
}

// sample returns the RRR set for root. The returned slice is only valid
// until the next call; callers must copy if they retain it. The root is
// always a member (it trivially reaches itself).
func (s *sampler) sample(root int32, rng *randx.Rand) []int32 {
	s.stamp++
	s.queue = append(s.queue[:0], root)
	s.out = append(s.out[:0], root)
	s.visited[root] = s.stamp
	for len(s.queue) > 0 {
		v := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		in := s.g.In(v)
		if len(in) == 0 {
			continue
		}
		p := 1 / float64(len(in))
		for _, u := range in {
			if s.visited[u] == s.stamp {
				continue
			}
			if rng.Bool(p) {
				s.visited[u] = s.stamp
				s.queue = append(s.queue, u)
				s.out = append(s.out, u)
			}
		}
	}
	return s.out
}

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

// Wire is the collection's serialized form, part of the framework
// artifact's pinned wire format (see internal/fwio): the flat CSR
// arrays exactly as Build laid them out, minus the graph (the artifact
// carries the graph once; FromWire reattaches it).
type Wire struct {
	Roots      []int32 `json:"roots"`
	SetOff     []int32 `json:"set_off,omitempty"`
	SetMembers []int32 `json:"set_members,omitempty"`
	CoverOff   []int32 `json:"cover_off"`
	CoverIDs   []int32 `json:"cover_ids"`
	Stats      Stats   `json:"stats"`
}

// Wire returns the collection's serialized form. The arrays alias
// collection storage; callers must treat them as read-only.
func (c *Collection) Wire() Wire {
	return Wire{
		Roots:      c.roots,
		SetOff:     c.setOff,
		SetMembers: c.setMembers,
		CoverOff:   c.coverOff,
		CoverIDs:   c.coverIDs,
		Stats:      c.stats,
	}
}

// csrValid checks one CSR offset array: starts at zero, monotone
// nondecreasing, and its final offset indexes exactly the data array.
func csrValid(off []int32, dataLen int) bool {
	if len(off) == 0 || off[0] != 0 {
		return false
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return false
		}
	}
	return int(off[len(off)-1]) == dataLen
}

// FromWire rebuilds a collection over g from its serialized form,
// validating every CSR invariant and index range so a corrupt or
// hand-edited artifact cannot produce a collection that panics (or
// silently answers wrong) later.
func FromWire(g *socialgraph.Graph, w Wire) (*Collection, error) {
	n := g.N()
	if len(w.CoverOff) != n+1 {
		return nil, fmt.Errorf("rrr: wire cover index has %d offsets for a %d-worker graph (want %d)", len(w.CoverOff), n, n+1)
	}
	if !csrValid(w.CoverOff, len(w.CoverIDs)) {
		return nil, fmt.Errorf("rrr: wire cover index offsets are not a valid CSR over %d entries", len(w.CoverIDs))
	}
	numSets := len(w.Roots)
	for i, r := range w.Roots {
		if r < 0 || int(r) >= n {
			return nil, fmt.Errorf("rrr: wire set %d has root %d outside [0,%d)", i, r, n)
		}
	}
	for i, id := range w.CoverIDs {
		if id < 0 || int(id) >= numSets {
			return nil, fmt.Errorf("rrr: wire cover entry %d names set %d outside [0,%d)", i, id, numSets)
		}
	}
	if len(w.SetOff) != numSets+1 {
		return nil, fmt.Errorf("rrr: wire forward index has %d offsets for %d sets (want %d)", len(w.SetOff), numSets, numSets+1)
	}
	if !csrValid(w.SetOff, len(w.SetMembers)) {
		return nil, fmt.Errorf("rrr: wire forward-index offsets are not a valid CSR over %d members", len(w.SetMembers))
	}
	for i, m := range w.SetMembers {
		if m < 0 || int(m) >= n {
			return nil, fmt.Errorf("rrr: wire set member %d is worker %d outside [0,%d)", i, m, n)
		}
	}
	return &Collection{
		g:          g,
		roots:      w.Roots,
		setOff:     w.SetOff,
		setMembers: w.SetMembers,
		coverOff:   w.CoverOff,
		coverIDs:   w.CoverIDs,
		stats:      w.Stats,
	}, nil
}
