package lda

import (
	"math"
	"testing"

	"dita/internal/paralleltest"
	"dita/internal/randx"
)

// synthCorpus builds documents from two disjoint "true topics": words
// 0..4 and words 5..9. Each document draws from exactly one topic.
func synthCorpus(nDocs, docLen int, seed uint64) (docs [][]int32, labels []int) {
	rng := randx.New(seed)
	docs = make([][]int32, nDocs)
	labels = make([]int, nDocs)
	for d := range docs {
		topic := d % 2
		labels[d] = topic
		doc := make([]int32, docLen)
		for i := range doc {
			doc[i] = int32(topic*5 + rng.Intn(5))
		}
		docs[d] = doc
	}
	return docs, labels
}

func trainSynth(t *testing.T, seed uint64) (*Model, [][]int32, []int) {
	t.Helper()
	docs, labels := synthCorpus(40, 20, seed)
	// Alpha is set explicitly: the 50/K heuristic the library defaults to
	// is tuned for paper-scale K=50 and over-smooths tiny K.
	m, err := Train(docs, 10, Config{Topics: 4, Alpha: 0.3, TrainIters: 120, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m, docs, labels
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train([][]int32{{0}}, 0, Config{}); err == nil {
		t.Error("zero vocab accepted")
	}
	if _, err := Train([][]int32{{5}}, 3, Config{}); err == nil {
		t.Error("out-of-vocab word accepted")
	}
	if _, err := Train([][]int32{{-1}}, 3, Config{}); err == nil {
		t.Error("negative word accepted")
	}
}

func TestDistributionsNormalized(t *testing.T) {
	m, docs, _ := trainSynth(t, 1)
	for k := 0; k < m.Topics(); k++ {
		sum := 0.0
		for _, p := range m.phi[k] {
			if p < 0 {
				t.Fatalf("phi[%d] has negative entry", k)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("phi[%d] sums to %v", k, sum)
		}
	}
	for d := range docs {
		sum := 0.0
		for _, p := range m.DocTopics(d) {
			if p < 0 {
				t.Fatalf("theta[%d] has negative entry", d)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("theta[%d] sums to %v", d, sum)
		}
	}
}

func TestAffinitySeparatesTopics(t *testing.T) {
	// Same-topic documents must have systematically higher affinity than
	// cross-topic documents on a clearly separated corpus.
	m, docs, labels := trainSynth(t, 2)
	same, cross := 0.0, 0.0
	nSame, nCross := 0, 0
	for a := 0; a < len(docs); a++ {
		for b := a + 1; b < len(docs); b++ {
			aff := Affinity(m.DocTopics(a), m.DocTopics(b))
			if labels[a] == labels[b] {
				same += aff
				nSame++
			} else {
				cross += aff
				nCross++
			}
		}
	}
	same /= float64(nSame)
	cross /= float64(nCross)
	if same <= cross*1.5 {
		t.Errorf("same-topic affinity %v not clearly above cross-topic %v", same, cross)
	}
}

func TestInferMatchesTrainingTopics(t *testing.T) {
	m, _, _ := trainSynth(t, 3)
	// A fresh doc purely from word block 0..4 should be far more affine
	// to a training doc of the same block than to one of the other.
	newDoc := []int32{0, 1, 2, 3, 4, 0, 1, 2}
	theta := m.Infer(newDoc, 99)
	sum := 0.0
	for _, p := range theta {
		if p < 0 {
			t.Fatal("negative inferred topic probability")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("inferred theta sums to %v", sum)
	}
	affSame := Affinity(theta, m.DocTopics(0))  // doc 0 has label 0
	affCross := Affinity(theta, m.DocTopics(1)) // doc 1 has label 1
	if affSame <= affCross {
		t.Errorf("inferred doc affinity: same-topic %v <= cross-topic %v", affSame, affCross)
	}
}

func TestInferEmptyDocUniform(t *testing.T) {
	m, _, _ := trainSynth(t, 4)
	theta := m.Infer(nil, 1)
	want := 1 / float64(m.Topics())
	for k, p := range theta {
		if math.Abs(p-want) > 1e-12 {
			t.Errorf("empty doc theta[%d] = %v, want uniform %v", k, p, want)
		}
	}
}

func TestEmptyTrainingDocUniform(t *testing.T) {
	docs := [][]int32{{0, 1}, {}, {2, 3}}
	m, err := Train(docs, 4, Config{Topics: 2, TrainIters: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5
	for k, p := range m.DocTopics(1) {
		if math.Abs(p-want) > 1e-12 {
			t.Errorf("empty training doc theta[%d] = %v, want 0.5", k, p)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	a, _, _ := trainSynth(t, 6)
	b, _, _ := trainSynth(t, 6)
	for k := 0; k < a.Topics(); k++ {
		pa, pb := a.phi[k], b.phi[k]
		for v := range pa {
			if pa[v] != pb[v] {
				t.Fatalf("phi differs across identical runs at topic %d word %d", k, v)
			}
		}
	}
}

func TestInferDeterministicPerSeed(t *testing.T) {
	m, _, _ := trainSynth(t, 7)
	doc := []int32{5, 6, 7}
	a := m.Infer(doc, 42)
	b := m.Infer(doc, 42)
	for k := range a {
		if a[k] != b[k] {
			t.Fatal("Infer with same seed diverged")
		}
	}
}

func TestAffinityBasics(t *testing.T) {
	a := []float64{1, 0, 0}
	b := []float64{0, 1, 0}
	if got := Affinity(a, b); got != 0 {
		t.Errorf("orthogonal affinity = %v, want 0", got)
	}
	if got := Affinity(a, a); got != 1 {
		t.Errorf("identical point-mass affinity = %v, want 1", got)
	}
	u := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	if got := Affinity(u, u); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("uniform self affinity = %v, want 1/3", got)
	}
}

func TestAffinityPanicsOnDimensionMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch did not panic")
		}
	}()
	Affinity([]float64{1}, []float64{0.5, 0.5})
}

func TestPerplexityLowerOnStructuredData(t *testing.T) {
	// A trained model should assign lower perplexity to documents drawn
	// from the training distribution than a "null" model trained on
	// uniform noise over the same vocabulary.
	docs, _ := synthCorpus(40, 20, 8)
	m, err := Train(docs, 10, Config{Topics: 4, TrainIters: 120, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	heldOut, _ := synthCorpus(10, 20, 9)
	structured := perplexity(m, heldOut, 1)

	rng := randx.New(10)
	noise := make([][]int32, 40)
	for d := range noise {
		doc := make([]int32, 20)
		for i := range doc {
			doc[i] = int32(rng.Intn(10))
		}
		noise[d] = doc
	}
	nullModel, err := Train(noise, 10, Config{Topics: 4, TrainIters: 120, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	unstructured := perplexity(nullModel, heldOut, 1)
	if structured >= unstructured {
		t.Errorf("structured perplexity %v not below null-model %v", structured, unstructured)
	}
	// Perplexity can never beat the effective support size of a topic
	// block (5 words) by much, nor exceed vocab size wildly.
	if structured < 3 || structured > 11 {
		t.Errorf("structured perplexity %v outside plausible [3, 11]", structured)
	}
}

// perplexity computes the per-word perplexity of held-out documents under
// the model, using each document's fold-in topic distribution. Lower is
// better; it confirms training actually fits structure.
func perplexity(m *Model, docs [][]int32, seed uint64) float64 {
	logSum, words := 0.0, 0
	for d, doc := range docs {
		if len(doc) == 0 {
			continue
		}
		theta := m.Infer(doc, seed+uint64(d))
		for _, w := range doc {
			p := 0.0
			for t := 0; t < m.cfg.Topics; t++ {
				p += theta[t] * m.phi[t][w]
			}
			if p < 1e-300 {
				p = 1e-300
			}
			logSum += math.Log(p)
			words++
		}
	}
	if words == 0 {
		return 0
	}
	return math.Exp(-logSum / float64(words))
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Topics != 50 {
		t.Errorf("default Topics = %d, want 50 (the paper's |Top|)", c.Topics)
	}
	if c.Alpha <= 0 || c.Beta <= 0 || c.TrainIters <= 0 || c.InferIters <= 0 {
		t.Errorf("defaults not positive: %+v", c)
	}
	if c.BurnIn >= c.TrainIters {
		t.Errorf("burn-in %d >= iters %d", c.BurnIn, c.TrainIters)
	}
}

func TestTrainParallelismInvariant(t *testing.T) {
	// The tentpole determinism contract: a multi-chunk corpus (several
	// docChunk blocks) trains to a bit-identical model at any worker
	// count. The harness compares φ and θ via DeepEqual.
	docs, _ := synthCorpus(4*docChunk+17, 12, 21)
	paralleltest.Invariant(t, func(par int) any {
		m, err := Train(docs, 10, Config{Topics: 6, Alpha: 0.3, TrainIters: 25, Seed: 21, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return struct {
			Phi   [][]float64
			Theta [][]float64
		}{m.phi, m.theta}
	})
}

func TestTrainDoesNotRetainParallelism(t *testing.T) {
	docs, _ := synthCorpus(10, 8, 1)
	m, err := Train(docs, 10, Config{Topics: 4, TrainIters: 10, Seed: 1, Parallelism: 7})
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.Parallelism != 0 {
		t.Errorf("model retained Parallelism %d; the knob is not part of model identity", m.cfg.Parallelism)
	}
}

func TestTrainParallelMatchesStatisticalQuality(t *testing.T) {
	// The chunked (AD-LDA style) sweep must still learn the corpus
	// structure when documents are spread over many concurrent chunks:
	// same-topic affinity clearly above cross-topic, as in the
	// sequential tests above.
	docs, labels := synthCorpus(3*docChunk, 16, 33)
	m, err := Train(docs, 10, Config{Topics: 4, Alpha: 0.3, TrainIters: 120, Seed: 33, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	same, cross := 0.0, 0.0
	nSame, nCross := 0, 0
	for a := 0; a < len(docs); a++ {
		for b := a + 1; b < len(docs); b++ {
			aff := Affinity(m.DocTopics(a), m.DocTopics(b))
			if labels[a] == labels[b] {
				same += aff
				nSame++
			} else {
				cross += aff
				nCross++
			}
		}
	}
	same /= float64(nSame)
	cross /= float64(nCross)
	if same <= cross*1.5 {
		t.Errorf("chunked training: same-topic affinity %v not clearly above cross-topic %v", same, cross)
	}
}
