package core

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"dita/internal/assign"
	"dita/internal/dataset"
	"dita/internal/influence"
	"dita/internal/lda"
	"dita/internal/model"
	"dita/internal/paralleltest"
	"dita/internal/socialgraph"
)

// testFramework trains a small framework on a generated dataset and
// returns both. Kept cheap; shared by most tests in this file.
func testFramework(t *testing.T) (*Framework, *dataset.Data) {
	t.Helper()
	p := dataset.BrightkiteLike()
	p.NumUsers = 200
	p.NumVenues = 250
	p.Days = 8
	p.Seed = 11
	data, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cutoff := 6 * 24.0
	fw, err := Train(TrainingDataFrom(data, cutoff), Config{LDA: lda.Config{Topics: 10, TrainIters: 40}})
	if err != nil {
		t.Fatal(err)
	}
	return fw, data
}

func testInstance(t *testing.T, data *dataset.Data) *model.Instance {
	t.Helper()
	inst, err := data.Snapshot(dataset.SnapshotParams{
		Day: 6, NumTasks: 60, NumWorkers: 50, ValidHours: 5, RadiusKm: 25, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(TrainingData{}, Config{}); err == nil {
		t.Error("training without a graph accepted")
	}
}

// TestTrainRejectsMisalignedDocuments: Documents is indexed by user id,
// so more documents than graph users is corrupt input. Train used to
// silently truncate the theta loop; it must now refuse with the named
// error.
func TestTrainRejectsMisalignedDocuments(t *testing.T) {
	g := socialgraph.MustNew(2, []socialgraph.Edge{{From: 0, To: 1}})
	_, err := Train(TrainingData{
		Graph:     g,
		Documents: [][]int32{{0}, {1}, {0, 1}},
		Vocab:     2,
	}, Config{LDA: lda.Config{Topics: 2, TrainIters: 2}})
	if !errors.Is(err, ErrDocumentsExceedGraph) {
		t.Fatalf("3 documents on a 2-user graph: got err %v, want ErrDocumentsExceedGraph", err)
	}
	if err == nil || !strings.Contains(err.Error(), "3 documents") || !strings.Contains(err.Error(), "2-user") {
		t.Errorf("error does not name the mismatch: %v", err)
	}
}

func TestTrainedComponentsPresent(t *testing.T) {
	fw, _ := testFramework(t)
	if fw.Graph() == nil || fw.LDA() == nil || fw.Mobility() == nil ||
		fw.Entropy() == nil || fw.Propagation() == nil {
		t.Fatal("trained framework has nil components")
	}
	if fw.Speed() != 5 {
		t.Errorf("default speed %v, want 5 (paper)", fw.Speed())
	}
	if fw.Propagation().NumSets() == 0 {
		t.Error("no RRR sets")
	}
	if fw.Mobility().NumWorkers() == 0 {
		t.Error("no mobility models")
	}
	if len(fw.Entropy().Wire().Venues) == 0 {
		t.Error("empty entropy table")
	}
}

func TestAssignAllAlgorithmsValid(t *testing.T) {
	fw, data := testFramework(t)
	inst := testInstance(t, data)
	ev := fw.Prepare(inst, influence.All, 1)
	pairs := assign.FeasiblePairs(inst, fw.Speed())
	for _, alg := range assign.Algorithms {
		set, m, _ := fw.AssignPreparedPairsTiled(inst, ev, alg, pairs, 1)
		if err := set.Validate(len(inst.Tasks), len(inst.Workers)); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if m.Assigned != set.Len() {
			t.Errorf("%v: metrics.Assigned %d != set %d", alg, m.Assigned, set.Len())
		}
		if m.Assigned == 0 {
			t.Errorf("%v assigned nothing", alg)
		}
		if m.CPU <= 0 {
			t.Errorf("%v reported non-positive CPU time", alg)
		}
		if m.NumWorkers != 50 || m.NumTasks != 60 {
			t.Errorf("%v instance dims recorded wrong: %d×%d", alg, m.NumWorkers, m.NumTasks)
		}
		if m.Algorithm != alg.String() {
			t.Errorf("metrics algorithm %q", m.Algorithm)
		}
	}
}

func TestMetricsConsistency(t *testing.T) {
	fw, data := testFramework(t)
	inst := testInstance(t, data)
	set, m := fw.Assign(inst, assign.IA, 1)
	if math.Abs(m.AI-set.AverageInfluence()) > 1e-12 {
		t.Errorf("AI %v != set average %v", m.AI, set.AverageInfluence())
	}
	if math.Abs(m.TravelKm-set.AverageTravel()) > 1e-12 {
		t.Errorf("TravelKm %v != set average %v", m.TravelKm, set.AverageTravel())
	}
	if m.AP < 0 {
		t.Errorf("negative AP %v", m.AP)
	}
	if m.Feasible <= 0 {
		t.Errorf("feasible pair count %d", m.Feasible)
	}
}

func TestFlowAlgorithmsAgreeOnCardinality(t *testing.T) {
	fw, data := testFramework(t)
	inst := testInstance(t, data)
	ev := fw.Prepare(inst, influence.All, 1)
	pairs := assign.FeasiblePairs(inst, fw.Speed())
	_, mta, _ := fw.AssignPreparedPairsTiled(inst, ev, assign.MTA, pairs, 1)
	for _, alg := range []assign.Algorithm{assign.IA, assign.EIA, assign.DIA} {
		_, m, _ := fw.AssignPreparedPairsTiled(inst, ev, alg, pairs, 1)
		if m.Assigned != mta.Assigned {
			t.Errorf("%v assigned %d, MTA %d", alg, m.Assigned, mta.Assigned)
		}
	}
}

func TestQualitativeOrderingOnRealPipeline(t *testing.T) {
	// The paper's empirical orderings on the fully trained pipeline,
	// averaged over a few instances: AI(MI) ≥ AI(IA) ≥ AI(MTA) and
	// AP(IA) ≥ AP(MTA); DIA has the smallest travel cost.
	fw, data := testFramework(t)
	sum := map[assign.Algorithm]*Metrics{}
	for _, alg := range assign.Algorithms {
		sum[alg] = &Metrics{}
	}
	for day := 6; day <= 7; day++ {
		inst, err := data.Snapshot(dataset.SnapshotParams{
			Day: day, NumTasks: 60, NumWorkers: 50, ValidHours: 5, RadiusKm: 25, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		ev := fw.Prepare(inst, influence.All, uint64(day))
		pairs := assign.FeasiblePairs(inst, fw.Speed())
		for _, alg := range assign.Algorithms {
			_, m, _ := fw.AssignPreparedPairsTiled(inst, ev, alg, pairs, 1)
			sum[alg].AI += m.AI
			sum[alg].AP += m.AP
			sum[alg].TravelKm += m.TravelKm
			sum[alg].Assigned += m.Assigned
		}
	}
	if sum[assign.MI].AI < sum[assign.IA].AI {
		t.Errorf("AI: MI %v below IA %v", sum[assign.MI].AI, sum[assign.IA].AI)
	}
	if sum[assign.IA].AI < sum[assign.MTA].AI {
		t.Errorf("AI: IA %v below MTA %v", sum[assign.IA].AI, sum[assign.MTA].AI)
	}
	if sum[assign.MI].Assigned > sum[assign.MTA].Assigned {
		t.Errorf("MI assigned %d more than MTA %d", sum[assign.MI].Assigned, sum[assign.MTA].Assigned)
	}
	if sum[assign.DIA].TravelKm > sum[assign.MTA].TravelKm {
		t.Errorf("travel: DIA %v above MTA %v", sum[assign.DIA].TravelKm, sum[assign.MTA].TravelKm)
	}
}

func TestAblationMasksChangeAssignments(t *testing.T) {
	fw, data := testFramework(t)
	inst := testInstance(t, data)
	pairs := assign.FeasiblePairs(inst, fw.Speed())
	ais := map[influence.Components]float64{}
	for _, mask := range []influence.Components{influence.All, influence.WP, influence.AP, influence.AW} {
		ev := fw.Prepare(inst, mask, 1)
		_, m, _ := fw.AssignPreparedPairsTiled(inst, ev, assign.IA, pairs, 1)
		ais[mask] = m.AI
		if m.Assigned == 0 {
			t.Fatalf("mask %v assigned nothing", mask)
		}
	}
	// The four variants should not all coincide (the factors matter).
	if ais[influence.All] == ais[influence.WP] && ais[influence.All] == ais[influence.AP] &&
		ais[influence.All] == ais[influence.AW] {
		t.Errorf("all masks produced identical AI %v", ais[influence.All])
	}
}

func TestAssignDeterministic(t *testing.T) {
	fw, data := testFramework(t)
	inst := testInstance(t, data)
	a, ma := fw.Assign(inst, assign.IA, 7)
	b, mb := fw.Assign(inst, assign.IA, 7)
	if a.Len() != b.Len() || ma.AI != mb.AI {
		t.Fatalf("Assign nondeterministic: %d/%v vs %d/%v", a.Len(), ma.AI, b.Len(), mb.AI)
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("pair %d differs", i)
		}
	}
}

func TestSessionAssignMatchesColdPath(t *testing.T) {
	// The session plumbing must be a pure caching layer: assigning
	// through a session's evaluator at any parallelism equals the
	// one-call cold path, and repeating the same instance through the
	// warm cache changes nothing.
	fw, data := testFramework(t)
	inst := testInstance(t, data)
	const seed = 3
	wantSet, wantM := fw.Assign(inst, assign.IA, seed)
	pairs := assign.FeasiblePairs(inst, fw.Speed())
	sess := fw.PrepareSession(influence.All, seed, 2)
	for round := 0; round < 2; round++ {
		set, m, _ := fw.AssignPreparedPairsTiled(inst, sess.Prepare(inst), assign.IA, pairs, 2)
		if !reflect.DeepEqual(set, wantSet) {
			t.Fatalf("round %d: session assignment diverged from the cold path", round)
		}
		m.CPU, wantM.CPU = 0, 0
		if m != wantM {
			t.Fatalf("round %d: session metrics %+v, cold %+v", round, m, wantM)
		}
	}
	if got, want := sess.Influence().CachedTasks(), len(inst.Tasks); got != want {
		t.Errorf("session caches %d tasks, want %d", got, want)
	}
}

// TestAssignPreparedPairsAuthoritative: the solver entry point takes its
// pairs as authoritative and never rescans — nil pairs on a
// well-connected instance assign nothing — while a scanned set matches
// the one-call path exactly.
func TestAssignPreparedPairsAuthoritative(t *testing.T) {
	fw, data := testFramework(t)
	inst := testInstance(t, data)
	ev := fw.Prepare(inst, influence.All, 1)

	set, m, _ := fw.AssignPreparedPairsTiled(inst, ev, assign.IA, nil, 1)
	if set.Len() != 0 || m.Feasible != 0 {
		t.Fatalf("authoritative empty pair set assigned %d over %d feasible — a rescan happened",
			set.Len(), m.Feasible)
	}

	pairs := assign.FeasiblePairs(inst, fw.Speed())
	gotSet, gotM, _ := fw.AssignPreparedPairsTiled(inst, ev, assign.IA, pairs, 1)
	wantSet, wantM := fw.Assign(inst, assign.IA, 1)
	if !reflect.DeepEqual(gotSet, wantSet) {
		t.Fatal("precomputed pairs diverged from the one-call path")
	}
	gotM.CPU, wantM.CPU = 0, 0
	if gotM != wantM {
		t.Fatalf("metrics %+v, want %+v", gotM, wantM)
	}
}

func TestTrainParallelismInvariant(t *testing.T) {
	// The umbrella knob drives LDA, mobility and RPO training; the whole
	// fitted framework — stored config included, since Train drops the
	// worker-pool knobs — must be bit-identical at any pool width.
	p := dataset.BrightkiteLike()
	p.NumUsers = 150
	p.NumVenues = 180
	p.Days = 6
	p.Seed = 19
	data, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cutoff := 5 * 24.0
	docs, vocab := data.Documents(cutoff)
	td := TrainingData{
		Graph:     data.Graph,
		Histories: data.HistoriesBefore(cutoff),
		Documents: docs,
		Vocab:     vocab,
		Records:   data.CheckInsBefore(cutoff),
	}
	paralleltest.Invariant(t, func(par int) any {
		fw, err := Train(td, Config{
			LDA:         lda.Config{Topics: 8, TrainIters: 15},
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fw
	})
}

func TestConfigParallelismFansOut(t *testing.T) {
	c := Config{Parallelism: 3}.withDefaults()
	if c.LDA.Parallelism != 3 || c.Mobility.Parallelism != 3 || c.RPO.Parallelism != 3 {
		t.Errorf("umbrella knob not copied into sub-configs: %+v", c)
	}
	// An explicit sub-config setting wins over the umbrella.
	c = Config{Parallelism: 3, LDA: lda.Config{Parallelism: 1}}.withDefaults()
	if c.LDA.Parallelism != 1 {
		t.Errorf("explicit LDA.Parallelism overridden: %d", c.LDA.Parallelism)
	}
	if c.Mobility.Parallelism != 3 || c.RPO.Parallelism != 3 {
		t.Errorf("umbrella knob lost for the other components: %+v", c)
	}
}

// TestMetricsJSONRoundTrip pins the wire format sharded experiment runs
// exchange: every field — including floats with no short decimal form
// and extreme magnitudes — must survive Marshal/Unmarshal bit-exactly,
// and the schema must stay the documented snake_case one.
func TestMetricsJSONRoundTrip(t *testing.T) {
	ms := []Metrics{
		{
			Algorithm: "IA", Assigned: 7,
			AI: 0.1 + 0.2, AP: math.Pi / 11, TravelKm: 1.0 / 3.0,
			CPU: 123456789 * time.Nanosecond, Feasible: 31, NumWorkers: 1200, NumTasks: 1500,
		},
		{AI: math.MaxFloat64, AP: math.SmallestNonzeroFloat64, TravelKm: 1e-300, CPU: time.Duration(1<<62 - 1)},
		{},
	}
	out, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"algorithm", "assigned", "ai", "ap", "travel_km", "cpu_ns", "feasible", "num_workers", "num_tasks"} {
		if !strings.Contains(string(out), `"`+field+`"`) {
			t.Errorf("JSON schema lost field %q: %s", field, out)
		}
	}
	var back []Metrics
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ms) {
		t.Fatalf("round-trip returned %d metrics, want %d", len(back), len(ms))
	}
	for i := range ms {
		if back[i] != ms[i] {
			t.Errorf("metrics %d did not round-trip:\n got %+v\nwant %+v", i, back[i], ms[i])
		}
	}
}
