// Package lda implements Latent Dirichlet Allocation trained with
// collapsed Gibbs sampling, specialized to the paper's worker-task
// affinity component (Section III-A).
//
// Each worker's historical task-performing record is a "document" whose
// "words" are the category labels of the tasks the worker completed. A
// task's document is its own category labels. After training, the
// affinity between a worker and a task is
//
//	Paff(w, s) = Σ_t P(w|t) · P(s|t)
//
// which we realize as the dot product of the two documents' inferred
// topic distributions (fold-in Gibbs estimates for unseen documents);
// semantically related categories concentrate in the same topics, so
// correlated preference and task profiles score high.
//
// Training is parallel and deterministic: the corpus is cut into fixed
// blocks of docChunk documents and each Gibbs sweep samples the blocks
// concurrently against the counts frozen at the start of the sweep plus
// the block's own deltas (the approximate distributed scheme of Newman
// et al.), folding the deltas back in a deterministic reduce. Each
// (sweep, chunk) pair draws from its own stream keyed by randx.Mix, so
// the fitted model is bit-identical at any Config.Parallelism — a
// single chunk degenerates to exact sequential collapsed Gibbs.
package lda

import (
	"fmt"

	"dita/internal/parallel"
	"dita/internal/randx"
)

// Config holds LDA hyperparameters. Zero values select the defaults used
// in the experiments (|Top| = 50 per the paper; symmetric Dirichlet
// priors α = 50/K, β = 0.01; 200 training sweeps; 50 fold-in sweeps).
type Config struct {
	Topics     int     `json:"topics"`      // number of topics |Top|
	Alpha      float64 `json:"alpha"`       // document-topic Dirichlet prior
	Beta       float64 `json:"beta"`        // topic-word Dirichlet prior
	TrainIters int     `json:"train_iters"` // Gibbs sweeps over the corpus
	BurnIn     int     `json:"burn_in"`     // sweeps discarded before averaging φ
	InferIters int     `json:"infer_iters"` // fold-in sweeps for unseen documents
	Seed       uint64  `json:"seed"`
	// Parallelism bounds the Gibbs worker goroutines; <= 0 means
	// runtime.GOMAXPROCS(0). Any setting yields a bit-identical model:
	// chunk boundaries depend only on the corpus size and every chunk
	// draws from a stream keyed by (Seed, sweep, chunk). The knob is a
	// runtime choice, not part of the model identity, so the trained
	// Model does not retain it.
	Parallelism int `json:"parallelism,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.Topics <= 0 {
		c.Topics = 50
	}
	if c.Alpha <= 0 {
		c.Alpha = 50 / float64(c.Topics)
	}
	if c.Beta <= 0 {
		c.Beta = 0.01
	}
	if c.TrainIters <= 0 {
		c.TrainIters = 200
	}
	if c.BurnIn <= 0 || c.BurnIn >= c.TrainIters {
		c.BurnIn = c.TrainIters / 2
	}
	if c.InferIters <= 0 {
		c.InferIters = 50
	}
	return c
}

// docChunk is the number of documents one scheduling chunk samples per
// sweep. It is part of the determinism contract: chunk boundaries decide
// which stream drives which document and which counts a block sees
// mid-sweep, so changing it changes the fitted model.
const docChunk = 64

// Model is a trained LDA model: the topic-term distribution φ plus the
// training corpus' document-topic distributions θ.
type Model struct {
	cfg   Config
	vocab int
	// phi[t][v] = P(v|t), averaged over post-burn-in Gibbs states.
	phi [][]float64
	// theta[d][t] = P(t|d) for each training document.
	theta [][]float64
}

// trainer is the chunked collapsed-Gibbs state shared by one Train run.
// The global counts (nTW, nT) are frozen during a sweep — chunks read
// them concurrently and write only their own delta block — and updated
// in the sequential reduce between sweeps. Per-document state (nDT, z)
// is owned by the chunk covering the document. The delta blocks are
// dense per chunk (memory scales with numChunks·K·vocab; each chunk
// must see exactly snapshot+own-delta for determinism), but the reduce
// walks only the per-chunk touched lists, so its cost tracks tokens.
type trainer struct {
	cfg   Config
	docs  [][]int32
	vocab int

	workers int
	chunks  int

	nDT [][]int32 // doc × topic counts (doc-owned)
	nTW []int32   // topic × word counts, flat K*vocab (frozen per sweep)
	nT  []int32   // topic totals (frozen per sweep)

	z     [][]int8  // topic assignment per token (K ≤ 127)
	zWide [][]int16 // used instead when K > 127
	wide  bool

	deltaTW [][]int32 // per chunk: K*vocab count deltas of the sweep
	deltaT  [][]int32 // per chunk: K topic-total deltas
	// touched[c] lists the deltaTW indices chunk c disturbed this sweep
	// (possibly with duplicates), so the reduce walks O(tokens) entries
	// instead of scanning every chunk's full K*vocab array.
	touched [][]int32
	rngs    []randx.Rand // per chunk: the (seed, sweep, chunk) stream
	probs   [][]float64  // per worker: sampling scratch
}

func newTrainer(docs [][]int32, vocab int, cfg Config) *trainer {
	K := cfg.Topics
	tr := &trainer{
		cfg:     cfg,
		docs:    docs,
		vocab:   vocab,
		workers: parallel.Workers(cfg.Parallelism),
		chunks:  parallel.NumChunks(len(docs), docChunk),
		nDT:     make([][]int32, len(docs)),
		nTW:     make([]int32, K*vocab),
		nT:      make([]int32, K),
		wide:    K > 127,
	}
	if tr.wide {
		tr.zWide = make([][]int16, len(docs))
	} else {
		tr.z = make([][]int8, len(docs))
	}
	for d, doc := range docs {
		tr.nDT[d] = make([]int32, K)
		if tr.wide {
			tr.zWide[d] = make([]int16, len(doc))
		} else {
			tr.z[d] = make([]int8, len(doc))
		}
	}
	tr.deltaTW = make([][]int32, tr.chunks)
	tr.deltaT = make([][]int32, tr.chunks)
	tr.touched = make([][]int32, tr.chunks)
	for c := range tr.deltaTW {
		tr.deltaTW[c] = make([]int32, K*vocab)
		tr.deltaT[c] = make([]int32, K)
	}
	tr.rngs = make([]randx.Rand, tr.chunks)
	tr.probs = make([][]float64, tr.workers)
	for w := range tr.probs {
		tr.probs[w] = make([]float64, K)
	}
	return tr
}

func (tr *trainer) getZ(d, i int) int {
	if tr.wide {
		return int(tr.zWide[d][i])
	}
	return int(tr.z[d][i])
}

func (tr *trainer) setZ(d, i, t int) {
	if tr.wide {
		tr.zWide[d][i] = int16(t)
	} else {
		tr.z[d][i] = int8(t)
	}
}

// sweep runs one chunked pass over the corpus. Sweep 0 initializes the
// assignments uniformly at random; later sweeps resample every token
// with the collapsed Gibbs conditional against the frozen global counts
// plus the chunk's own live deltas. After the parallel section the
// deltas are folded into the global counts in chunk order and cleared.
func (tr *trainer) sweep(iter int) {
	K := tr.cfg.Topics
	vBeta := float64(tr.vocab) * tr.cfg.Beta
	parallel.ForChunks(tr.workers, len(tr.docs), docChunk, func(worker, c, lo, hi int) {
		rng := &tr.rngs[c]
		rng.Reseed(randx.Mix(tr.cfg.Seed, uint64(iter), uint64(c)))
		dTW, dT := tr.deltaTW[c], tr.deltaT[c]
		touched := tr.touched[c][:0]
		// bump adjusts dTW[idx], recording the index the first time it
		// leaves zero so the reduce only visits disturbed entries.
		// (Entries that return to zero may be recorded again; the reduce
		// zeroes after applying, so duplicates fold in nothing.)
		bump := func(idx int, by int32) {
			if dTW[idx] == 0 {
				touched = append(touched, int32(idx))
			}
			dTW[idx] += by
		}
		probs := tr.probs[worker]
		for d := lo; d < hi; d++ {
			doc := tr.docs[d]
			nDT := tr.nDT[d]
			for i, w := range doc {
				if iter == 0 {
					t := rng.Intn(K)
					tr.setZ(d, i, t)
					nDT[t]++
					bump(t*tr.vocab+int(w), 1)
					dT[t]++
					continue
				}
				t := tr.getZ(d, i)
				nDT[t]--
				bump(t*tr.vocab+int(w), -1)
				dT[t]--
				// p(z=t | rest) ∝ (nDT+α)(nTW+β)/(nT+Vβ); the token's own
				// prior count lives in the global arrays, so global+delta
				// stays non-negative for everything this chunk owns.
				total := 0.0
				for k := 0; k < K; k++ {
					p := (float64(nDT[k]) + tr.cfg.Alpha) *
						(float64(tr.nTW[k*tr.vocab+int(w)]+dTW[k*tr.vocab+int(w)]) + tr.cfg.Beta) /
						(float64(tr.nT[k]+dT[k]) + vBeta)
					probs[k] = p
					total += p
				}
				u := rng.Float64() * total
				nt := K - 1
				acc := 0.0
				for k := 0; k < K; k++ {
					acc += probs[k]
					if u < acc {
						nt = k
						break
					}
				}
				tr.setZ(d, i, nt)
				nDT[nt]++
				bump(nt*tr.vocab+int(w), 1)
				dT[nt]++
			}
		}
		tr.touched[c] = touched
	})
	// Deterministic reduce: integer addition commutes, but walking the
	// chunks in index order keeps the discipline explicit. Only the
	// touched entries are visited — O(tokens), not O(chunks·K·vocab).
	for c := 0; c < tr.chunks; c++ {
		dTW, dT := tr.deltaTW[c], tr.deltaT[c]
		for _, idx := range tr.touched[c] {
			if v := dTW[idx]; v != 0 {
				tr.nTW[idx] += v
				dTW[idx] = 0
			}
		}
		for t, v := range dT {
			if v != 0 {
				tr.nT[t] += v
				dT[t] = 0
			}
		}
	}
}

// accumulate folds the current Gibbs state into the φ and θ averages.
// It reads only the reduced global counts, and every goroutine writes
// topic- or document-owned rows, so the result is order-independent.
func (tr *trainer) accumulate(phiAcc, thetaAcc [][]float64) {
	K := tr.cfg.Topics
	vBeta := float64(tr.vocab) * tr.cfg.Beta
	parallel.For(tr.workers, K, func(_, t int) {
		den := float64(tr.nT[t]) + vBeta
		row := tr.nTW[t*tr.vocab : (t+1)*tr.vocab]
		for v, cnt := range row {
			phiAcc[t][v] += (float64(cnt) + tr.cfg.Beta) / den
		}
	})
	parallel.ForChunks(tr.workers, len(tr.docs), docChunk, func(_, _, lo, hi int) {
		for d := lo; d < hi; d++ {
			den := float64(len(tr.docs[d])) + float64(K)*tr.cfg.Alpha
			for t := 0; t < K; t++ {
				thetaAcc[d][t] += (float64(tr.nDT[d][t]) + tr.cfg.Alpha) / den
			}
		}
	})
}

// Train fits an LDA model on the corpus, where docs[d] lists the word
// (category) ids of document d and vocab is the vocabulary size. Empty
// documents are legal and produce the uniform topic distribution. The
// result is a pure function of (docs, vocab, Config) minus the
// Parallelism knob.
func Train(docs [][]int32, vocab int, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if vocab <= 0 {
		return nil, fmt.Errorf("lda: vocabulary size must be positive, got %d", vocab)
	}
	for d, doc := range docs {
		for _, w := range doc {
			if w < 0 || int(w) >= vocab {
				return nil, fmt.Errorf("lda: doc %d has word %d outside vocab [0,%d)", d, w, vocab)
			}
		}
	}
	K := cfg.Topics
	tr := newTrainer(docs, vocab, cfg)

	phiAcc := make([][]float64, K)
	for t := range phiAcc {
		phiAcc[t] = make([]float64, vocab)
	}
	thetaAcc := make([][]float64, len(docs))
	for d := range thetaAcc {
		thetaAcc[d] = make([]float64, K)
	}

	tr.sweep(0) // random initialization, chunk-streamed like every sweep
	samples := 0
	for iter := 0; iter < cfg.TrainIters; iter++ {
		tr.sweep(iter + 1)
		if iter >= cfg.BurnIn {
			samples++
			tr.accumulate(phiAcc, thetaAcc)
		}
	}
	if samples == 0 {
		samples = 1
	}
	cfg.Parallelism = 0 // runtime knob, not model identity
	m := &Model{cfg: cfg, vocab: vocab, phi: phiAcc, theta: thetaAcc}
	for t := range m.phi {
		for v := range m.phi[t] {
			m.phi[t][v] /= float64(samples)
		}
	}
	for d := range m.theta {
		if len(docs[d]) == 0 {
			for t := 0; t < K; t++ {
				m.theta[d][t] = 1 / float64(K)
			}
			continue
		}
		for t := range m.theta[d] {
			m.theta[d][t] /= float64(samples)
		}
	}
	return m, nil
}

// Topics returns the number of topics K.
func (m *Model) Topics() int { return m.cfg.Topics }

// Vocab returns the vocabulary size.
func (m *Model) Vocab() int { return m.vocab }

// DocTopics returns the training document d's topic distribution θ_d.
func (m *Model) DocTopics(d int) []float64 { return m.theta[d] }

// Infer folds an unseen document into the trained model and returns its
// topic distribution. The topic-term distribution φ stays fixed; only the
// document's own assignments are resampled. Deterministic given seed.
func (m *Model) Infer(doc []int32, seed uint64) []float64 {
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
				p := (float64(cnt[k]) + m.cfg.Alpha) * m.phi[k][w]
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
			den := float64(len(doc)) + float64(K)*m.cfg.Alpha
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

// Affinity returns Paff for two topic distributions: Σ_t θw[t]·θs[t].
// It panics when the lengths differ (mixing models is a programming
// error).
func Affinity(thetaW, thetaS []float64) float64 {
	if len(thetaW) != len(thetaS) {
		panic("lda: affinity over distributions of different dimension")
	}
	sum := 0.0
	for t := range thetaW {
		sum += thetaW[t] * thetaS[t]
	}
	return sum
}

// Wire is the trained model's serialized form, part of the framework
// artifact's pinned wire format (see internal/fwio): the resolved
// hyperparameters (Infer needs Alpha and InferIters at serve time), the
// vocabulary size, and the fitted φ and θ matrices. encoding/json
// round-trips every finite float64 bit-exactly, so a decode is
// DeepEqual-identical to the trained model.
type Wire struct {
	Config Config      `json:"config"`
	Vocab  int         `json:"vocab"`
	Phi    [][]float64 `json:"phi"`
	Theta  [][]float64 `json:"theta"`
}

// Wire returns the model's serialized form. The matrices alias model
// storage; callers must treat them as read-only.
func (m *Model) Wire() Wire {
	return Wire{Config: m.cfg, Vocab: m.vocab, Phi: m.phi, Theta: m.theta}
}

// FromWire rebuilds a trained model from its serialized form, validating
// every dimension so a corrupt or hand-edited artifact cannot produce a
// model that panics later. The Parallelism knob is forced to zero, as
// Train does: it is a runtime choice, not model identity.
func FromWire(w Wire) (*Model, error) {
	if w.Config.Topics <= 0 {
		return nil, fmt.Errorf("lda: wire form has %d topics", w.Config.Topics)
	}
	if w.Vocab <= 0 {
		return nil, fmt.Errorf("lda: wire form has vocabulary size %d", w.Vocab)
	}
	if len(w.Phi) != w.Config.Topics {
		return nil, fmt.Errorf("lda: wire form has %d phi rows for %d topics", len(w.Phi), w.Config.Topics)
	}
	for t, row := range w.Phi {
		if len(row) != w.Vocab {
			return nil, fmt.Errorf("lda: phi row %d has %d entries for vocabulary %d", t, len(row), w.Vocab)
		}
	}
	for d, row := range w.Theta {
		if len(row) != w.Config.Topics {
			return nil, fmt.Errorf("lda: theta row %d has %d entries for %d topics", d, len(row), w.Config.Topics)
		}
	}
	cfg := w.Config
	cfg.Parallelism = 0
	return &Model{cfg: cfg, vocab: w.Vocab, phi: w.Phi, theta: w.Theta}, nil
}
