package lda

import (
	"math"
	"strings"
	"testing"

	"dita/internal/randx"
)

// inferReference is Infer as it was before the fold-in tables: every
// draw recomputes all K weights (n_t + α)·φ[t][w] from the topic-major
// φ and scans their running total linearly; every θ update divides.
// The products are wrapped in float64 so arm64 rounds them as amd64
// does, which is what Infer computes.
func inferReference(m *Model, doc []int32, seed uint64) []float64 {
	K := m.cfg.Topics
	out := make([]float64, K)
	if len(doc) == 0 {
		for t := range out {
			out[t] = 1 / float64(K)
		}
		return out
	}
	rng := randx.New(seed ^ 0xd1a0c0de)
	z := make([]int, len(doc))
	cnt := make([]int32, K)
	for i := range doc {
		t := rng.Intn(K)
		z[i] = t
		cnt[t]++
	}
	probs := make([]float64, K)
	acc := make([]float64, K)
	samples := 0
	burn := m.cfg.InferIters / 2
	for iter := 0; iter < m.cfg.InferIters; iter++ {
		for i, w := range doc {
			t := z[i]
			cnt[t]--
			total := 0.0
			for k := 0; k < K; k++ {
				p := float64((float64(cnt[k]) + m.cfg.Alpha) * m.phi[k][w])
				probs[k] = p
				total += p
			}
			nt := K - 1
			if total > 0 {
				u := rng.Float64() * total
				s := 0.0
				for k := 0; k < K; k++ {
					s += probs[k]
					if u < s {
						nt = k
						break
					}
				}
			}
			z[i] = nt
			cnt[nt]++
		}
		if iter >= burn {
			samples++
			den := float64(len(doc)) + float64(float64(K)*m.cfg.Alpha)
			for t := 0; t < K; t++ {
				acc[t] += (float64(cnt[t]) + m.cfg.Alpha) / den
			}
		}
	}
	if samples == 0 {
		samples = 1
	}
	for t := range out {
		out[t] = acc[t] / float64(samples)
	}
	return out
}

// inferModels returns the models the reference comparisons run on:
// trained models at K ∈ {1, 2, 50, 130} (K = 130 takes the training
// sampler's wide assignment arrays), plus a decoded model whose φ is
// mostly zeros, so draws meet flat runs of partial sums and words whose
// weights are all zero (the total-is-zero branch).
func inferModels(t testing.TB) []*Model {
	t.Helper()
	const vocab = 12
	docs := benchCorpus(60, 10, vocab, 3)
	var ms []*Model
	for _, K := range []int{1, 2, 50, 130} {
		m, err := Train(docs, vocab, Config{Topics: K, TrainIters: 12, Seed: uint64(K)})
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	const K = 50
	rng := randx.New(9)
	phi := make([][]float64, K)
	for k := range phi {
		phi[k] = make([]float64, vocab)
		for v := range phi[k] {
			if v != vocab-1 && rng.Intn(4) == 0 {
				phi[k][v] = rng.Float64()
			}
		}
	}
	m, err := FromWire(Wire{Config: Config{Topics: K, Alpha: 0.7, Beta: 0.01, InferIters: 9}, Vocab: vocab, Phi: phi})
	if err != nil {
		t.Fatal(err)
	}
	return append(ms, m)
}

// inferMatches reports the first topic where Infer and the reference
// disagree in their float64 bits, or -1.
func inferMatches(m *Model, doc []int32, seed uint64) (got, want []float64, at int) {
	got, want = m.Infer(doc, seed), inferReference(m, doc, seed)
	for t := range want {
		if math.Float64bits(got[t]) != math.Float64bits(want[t]) {
			return got, want, t
		}
	}
	return got, want, -1
}

// TestInferMatchesReference: the table-driven fold-in returns the
// linear scan's θ bit for bit, over documents of 0–8 words drawn from
// a 12-word vocabulary (so words repeat), on every inferModels model.
func TestInferMatchesReference(t *testing.T) {
	ms := inferModels(t)
	seeds := uint64(100_000)
	if testing.Short() {
		seeds = 10_000
	}
	for seed := uint64(0); seed < seeds; seed++ {
		m := ms[seed%uint64(len(ms))]
		rng := randx.New(randx.Mix(seed, 1))
		doc := make([]int32, rng.Intn(9))
		for i := range doc {
			doc[i] = int32(rng.Intn(m.Vocab()))
		}
		if got, want, at := inferMatches(m, doc, seed); at >= 0 {
			t.Fatalf("K=%d doc %v seed %d: theta[%d] = %v, reference %v", m.Topics(), doc, seed, at, got[at], want[at])
		}
	}
}

// FuzzInfer: for any document and seed, Infer returns the reference's
// θ bit for bit on every inferModels model.
func FuzzInfer(f *testing.F) {
	ms := inferModels(f)
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1), []byte{3, 3, 3})
	f.Add(uint64(7), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Fuzz(func(t *testing.T, seed uint64, words []byte) {
		if len(words) > 16 {
			words = words[:16]
		}
		for _, m := range ms {
			doc := make([]int32, len(words))
			for i, b := range words {
				doc[i] = int32(int(b) % m.Vocab())
			}
			if got, want, at := inferMatches(m, doc, seed); at >= 0 {
				t.Fatalf("K=%d doc %v seed %d: theta[%d] = %v, reference %v", m.Topics(), doc, seed, at, got[at], want[at])
			}
		}
	})
}

// TestFromWireRejectsBadValues: a wire form whose values could make
// the fold-in diverge from the reference, or are not a model at all,
// is refused; the valid form it is corrupted from loads.
func TestFromWireRejectsBadValues(t *testing.T) {
	valid := func() Wire {
		return Wire{
			Config: Config{Topics: 2, Alpha: 0.5, Beta: 0.01, InferIters: 4},
			Vocab:  2,
			Phi:    [][]float64{{0.25, 0.75}, {0.5, 0.5}},
			Theta:  [][]float64{{0.5, 0.5}},
		}
	}
	if _, err := FromWire(valid()); err != nil {
		t.Fatalf("valid wire refused: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(w *Wire)
		want    string
	}{
		{"alpha zero", func(w *Wire) { w.Config.Alpha = 0 }, "alpha"},
		{"alpha negative", func(w *Wire) { w.Config.Alpha = -1 }, "alpha"},
		{"alpha infinite", func(w *Wire) { w.Config.Alpha = math.Inf(1) }, "alpha"},
		{"alpha NaN", func(w *Wire) { w.Config.Alpha = math.NaN() }, "alpha"},
		{"beta zero", func(w *Wire) { w.Config.Beta = 0 }, "beta"},
		{"beta infinite", func(w *Wire) { w.Config.Beta = math.Inf(1) }, "beta"},
		{"no fold-in sweeps", func(w *Wire) { w.Config.InferIters = 0 }, "fold-in sweeps"},
		{"phi negative", func(w *Wire) { w.Phi[1][0] = -0.5 }, "phi[1][0]"},
		{"phi NaN", func(w *Wire) { w.Phi[0][1] = math.NaN() }, "phi[0][1]"},
		{"phi infinite", func(w *Wire) { w.Phi[0][0] = math.Inf(1) }, "phi[0][0]"},
		{"theta NaN", func(w *Wire) { w.Theta[0][1] = math.NaN() }, "theta[0][1]"},
		{"theta infinite", func(w *Wire) { w.Theta[0][0] = math.Inf(-1) }, "theta[0][0]"},
	}
	for _, tc := range cases {
		w := valid()
		tc.corrupt(&w)
		if _, err := FromWire(w); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FromWire error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
