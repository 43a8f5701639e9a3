package experiments

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dita/internal/assign"
	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/influence"
	"dita/internal/lda"
	"dita/internal/paralleltest"
	"dita/internal/randx"
)

func testRunner(t *testing.T) *Runner {
	t.Helper()
	p := dataset.BrightkiteLike()
	p.NumUsers = 200
	p.NumVenues = 260
	p.Days = 8
	p.Seed = 5
	data, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{
		NumTasks:   60,
		NumWorkers: 50,
		ValidHours: 5,
		RadiusKm:   25,
		Days:       []int{6, 7},
		Seed:       3,
	}
	r, err := NewRunner(data, core.Config{LDA: lda.Config{Topics: 10, TrainIters: 30}}, params)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDefaultParamsMatchTableII(t *testing.T) {
	p := Default()
	if p.NumTasks != 1500 {
		t.Errorf("|S| default %d, want 1500", p.NumTasks)
	}
	if p.NumWorkers != 1200 {
		t.Errorf("|W| default %d, want 1200", p.NumWorkers)
	}
	if p.ValidHours != 5 {
		t.Errorf("ϕ default %v, want 5", p.ValidHours)
	}
	if p.RadiusKm != 25 {
		t.Errorf("r default %v, want 25", p.RadiusKm)
	}
	if len(p.Days) != 4 {
		t.Errorf("evaluation days %d, want 4 (paper averages over 4 days)", len(p.Days))
	}
}

func TestSweepValuesMatchPaper(t *testing.T) {
	wantTasks := []int{500, 1000, 1500, 2000, 2500}
	for i, v := range wantTasks {
		if TaskSweep[i] != v {
			t.Fatalf("TaskSweep = %v, want %v", TaskSweep, wantTasks)
		}
	}
	wantWorkers := []int{400, 800, 1200, 1600, 2000}
	for i, v := range wantWorkers {
		if WorkerSweep[i] != v {
			t.Fatalf("WorkerSweep = %v", WorkerSweep)
		}
	}
	if len(ValidTimeSweep) != 6 || ValidTimeSweep[0] != 1 || ValidTimeSweep[5] != 6 {
		t.Errorf("ValidTimeSweep = %v", ValidTimeSweep)
	}
	if len(RadiusSweep) != 5 || RadiusSweep[0] != 5 || RadiusSweep[4] != 25 {
		t.Errorf("RadiusSweep = %v", RadiusSweep)
	}
}

// TestSharedPairsMatchPerAlgorithmRecompute: routing one precomputed
// feasibility set through every algorithm of a sweep point must be
// indistinguishable from each algorithm scanning for itself — sharing
// the pairs changes the work, never the figures.
func TestSharedPairsMatchPerAlgorithmRecompute(t *testing.T) {
	r := testRunner(t)
	inst, err := r.snapshot(r.P.Days[0], r.P.NumTasks, r.P.NumWorkers, r.P.ValidHours, r.P.RadiusKm)
	if err != nil {
		t.Fatal(err)
	}
	ev := r.FW.PrepareSession(influence.All, randx.Mix(r.P.Seed, uint64(r.P.Days[0])), 1).Prepare(inst)
	shared := r.feasiblePairs(inst)
	if len(shared) == 0 {
		t.Fatal("sweep point has no feasible pairs; the comparison gates nothing")
	}
	for _, alg := range assign.Algorithms {
		gotSet, gotM, _ := r.FW.AssignPreparedPairsTiled(inst, ev, alg, shared, 1)
		own := assign.FeasiblePairs(inst, r.FW.Speed())
		wantSet, wantM, _ := r.FW.AssignPreparedPairsTiled(inst, ev, alg, own, 1)
		if !reflect.DeepEqual(gotSet, wantSet) {
			t.Errorf("%v: shared-pairs assignment diverged from per-algorithm recomputation", alg)
		}
		gotM.CPU, wantM.CPU = 0, 0
		if gotM != wantM {
			t.Errorf("%v: shared-pairs metrics %+v, recomputed %+v", alg, gotM, wantM)
		}
	}
}

func TestComparisonSweepShape(t *testing.T) {
	r := testRunner(t)
	res, err := r.CompareTasks([]int{30, 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.Figure != "Fig. 9" || res.Dataset != "BK" || res.XLabel != "|S|" {
		t.Errorf("labels: %q %q %q", res.Figure, res.Dataset, res.XLabel)
	}
	algs := res.Algorithms()
	if len(algs) != 5 {
		t.Fatalf("algorithms %v, want 5", algs)
	}
	xs := res.Xs()
	if len(xs) != 2 || xs[0] != 30 || xs[1] != 60 {
		t.Fatalf("xs = %v", xs)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows %d, want 10 (2 sweep points × 5 algorithms)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Assigned <= 0 {
			t.Errorf("row %+v has no assignments", row)
		}
		if row.CPUms < 0 || row.AI < 0 || row.AP < 0 || row.TravelKm < 0 {
			t.Errorf("row %+v has negative metrics", row)
		}
	}
	// More tasks with fixed workers → number assigned must not shrink.
	for _, alg := range algs {
		a30, _ := res.Value(30, alg, MetricAssigned)
		a60, _ := res.Value(60, alg, MetricAssigned)
		if a60+1e-9 < a30 {
			t.Errorf("%s: assigned fell from %v to %v as |S| grew", alg, a30, a60)
		}
	}
}

func TestAblationSweepShape(t *testing.T) {
	r := testRunner(t)
	res, err := r.AblationTasks([]int{40})
	if err != nil {
		t.Fatal(err)
	}
	if res.Figure != "Fig. 5" {
		t.Errorf("figure %q", res.Figure)
	}
	algs := res.Algorithms()
	want := []string{"IA", "IA-WP", "IA-AP", "IA-AW"}
	if len(algs) != 4 {
		t.Fatalf("variants %v", algs)
	}
	for i, w := range want {
		if algs[i] != w {
			t.Fatalf("variants %v, want %v", algs, want)
		}
	}
	// All variants achieve the same (maximum) cardinality: they differ
	// only in edge costs.
	first, _ := res.Value(40, "IA", MetricAssigned)
	for _, a := range algs[1:] {
		v, _ := res.Value(40, a, MetricAssigned)
		if v != first {
			t.Errorf("%s assigned %v, IA %v — cardinality must match", a, v, first)
		}
	}
}

func TestRadiusSweepGrowsAssignments(t *testing.T) {
	r := testRunner(t)
	res, err := r.CompareRadius([]float64{5, 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range res.Algorithms() {
		small, _ := res.Value(5, alg, MetricAssigned)
		large, _ := res.Value(25, alg, MetricAssigned)
		if large < small {
			t.Errorf("%s: assignments fell from %v to %v as r grew", alg, small, large)
		}
	}
}

func TestValidTimeSweepGrowsAssignments(t *testing.T) {
	r := testRunner(t)
	res, err := r.CompareValidTime([]float64{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range res.Algorithms() {
		short, _ := res.Value(1, alg, MetricAssigned)
		long, _ := res.Value(6, alg, MetricAssigned)
		if long < short {
			t.Errorf("%s: assignments fell from %v to %v as ϕ grew", alg, short, long)
		}
	}
}

func TestWorkerSweepGrowsAssignments(t *testing.T) {
	r := testRunner(t)
	res, err := r.CompareWorkers([]int{20, 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range res.Algorithms() {
		few, _ := res.Value(20, alg, MetricAssigned)
		many, _ := res.Value(50, alg, MetricAssigned)
		if many < few {
			t.Errorf("%s: assignments fell from %v to %v as |W| grew", alg, few, many)
		}
	}
}

func TestFormatTable(t *testing.T) {
	r := testRunner(t)
	res, err := r.CompareTasks([]int{30})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.FormatTable(&buf, MetricAI)
	out := buf.String()
	for _, token := range []string{"Fig. 9", "AI", "BK", "|S|", "MTA", "IA", "EIA", "DIA", "MI", "30"} {
		if !strings.Contains(out, token) {
			t.Errorf("table output missing %q:\n%s", token, out)
		}
	}
	var all bytes.Buffer
	res.FormatAll(&all, AllMetrics)
	for _, m := range AllMetrics {
		if !strings.Contains(all.String(), string(m)) {
			t.Errorf("FormatAll missing metric %s", m)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	r := testRunner(t)
	res, err := r.AblationTasks([]int{40})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+4 { // header + 4 variants × 1 sweep point
		t.Fatalf("CSV lines %d, want 5:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "figure,dataset,xlabel,x,alg") {
		t.Errorf("CSV header: %s", lines[0])
	}
	for _, l := range lines[1:] {
		if got := strings.Count(l, ","); got != 9 {
			t.Errorf("CSV row has %d commas, want 9: %s", got, l)
		}
	}
}

// TestWriteCSVRoundTripRFC4180: field values carrying commas, quotes
// and newlines must survive the CSV untouched (the old escaper
// rewrote commas to semicolons, silently corrupting values). Every
// field is gated against a conforming RFC-4180 parse-back.
func TestWriteCSVRoundTripRFC4180(t *testing.T) {
	res := &Result{
		Figure:  `Fig. 9, panel "a"`,
		Dataset: "BK",
		XLabel:  "|S|, tasks",
		Rows: []Row{
			{X: 30, Alg: `IA,"quoted"`, CPUms: 1.5, Assigned: 3, AI: 0.25, AP: 0.5, TravelKm: 7},
			{X: 0.125, Alg: "multi\nline", CPUms: 2.5, Assigned: 4, AI: 0.125, AP: 0.75, TravelKm: 8},
		},
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse back: %v", err)
	}
	if len(recs) != 1+len(res.Rows) {
		t.Fatalf("parsed %d records, want %d", len(recs), 1+len(res.Rows))
	}
	for i, row := range res.Rows {
		want := []string{
			res.Figure, res.Dataset, res.XLabel,
			fmt.Sprintf("%g", row.X), row.Alg,
			fmt.Sprintf("%.6f", row.CPUms), fmt.Sprintf("%.2f", row.Assigned),
			fmt.Sprintf("%.6f", row.AI), fmt.Sprintf("%.6f", row.AP), fmt.Sprintf("%.6f", row.TravelKm),
		}
		if !reflect.DeepEqual(recs[i+1], want) {
			t.Errorf("row %d parsed back as %q, want %q", i, recs[i+1], want)
		}
	}
}

// TestFormatTableFullSizeMatchesValueScan gates the indexed FormatTable
// against the per-cell Value scan it replaced, on a synthetic result
// larger than any real figure (60 sweep values × 8 series, plus a
// duplicate cell and a hole, so first-match and missing-cell semantics
// are pinned too).
func TestFormatTableFullSizeMatchesValueScan(t *testing.T) {
	res := &Result{Figure: "Fig. X", Dataset: "BK", XLabel: "|S|"}
	const nx, na = 60, 8
	algs := make([]string, na)
	for a := range algs {
		algs[a] = fmt.Sprintf("ALG%d", a)
	}
	for x := 0; x < nx; x++ {
		for a, alg := range algs {
			if x == 17 && a == 3 { // hole: cell rendered as "-"
				continue
			}
			res.Rows = append(res.Rows, Row{
				X: float64(100 + x), Alg: alg,
				CPUms: float64(x * a), Assigned: float64(x + a),
				AI: float64(x) + float64(a)/16, AP: float64(a) + float64(x)/64, TravelKm: float64(x ^ a),
			})
		}
	}
	// Duplicate cell with different values: the first row must win.
	res.Rows = append(res.Rows, Row{X: 105, Alg: "ALG2", AI: -999})

	for _, m := range AllMetrics {
		var got bytes.Buffer
		res.FormatTable(&got, m)

		var want bytes.Buffer
		fmt.Fprintf(&want, "%s %s on %s — %s vs %s\n", res.Figure, m, res.Dataset, m, res.XLabel)
		fmt.Fprintf(&want, "%10s", res.XLabel)
		for _, a := range res.Algorithms() {
			fmt.Fprintf(&want, "%12s", a)
		}
		fmt.Fprintln(&want)
		for _, x := range res.Xs() {
			fmt.Fprintf(&want, "%10g", x)
			for _, a := range res.Algorithms() {
				v, ok := res.Value(x, a, m)
				if !ok {
					fmt.Fprintf(&want, "%12s", "-")
					continue
				}
				fmt.Fprintf(&want, "%12.4f", v)
			}
			fmt.Fprintln(&want)
		}
		if got.String() != want.String() {
			t.Fatalf("metric %s: indexed table diverges from the Value scan:\n%s\nwant:\n%s", m, got.String(), want.String())
		}
	}
}

func TestNewRunnerValidation(t *testing.T) {
	p := dataset.BrightkiteLike()
	p.NumUsers = 60
	p.NumVenues = 60
	p.Days = 4
	data, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(data, core.Config{}, Params{}); err == nil {
		t.Error("runner accepted empty evaluation days")
	}
}

func TestRunnerDeterministic(t *testing.T) {
	a := testRunner(t)
	b := testRunner(t)
	ra, err := a.AblationTasks([]int{40})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.AblationTasks([]int{40})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra.Rows {
		x, y := ra.Rows[i], rb.Rows[i]
		// CPU differs between runs; everything else must match exactly.
		if x.Alg != y.Alg || x.X != y.X || x.Assigned != y.Assigned || x.AI != y.AI ||
			x.AP != y.AP || x.TravelKm != y.TravelKm {
			t.Fatalf("row %d differs:\n%+v\n%+v", i, x, y)
		}
	}
}

// stripCPU zeroes the wall-clock column, the one legitimate divergence
// between runs at different pool widths.
func stripCPU(res *Result) []Row {
	rows := make([]Row, len(res.Rows))
	copy(rows, res.Rows)
	for i := range rows {
		rows[i].CPUms = 0
	}
	return rows
}

func TestSweepParallelismInvariant(t *testing.T) {
	// Sweeps fan out (day × sweep value) jobs; every metric except the
	// wall-clock CPU column must match a sequential run exactly, at any
	// pool width.
	r := testRunner(t)
	t.Run("comparison", func(t *testing.T) {
		paralleltest.Invariant(t, func(par int) any {
			run := *r
			run.P.Parallelism = par
			res, err := run.CompareTasks([]int{30, 60})
			if err != nil {
				t.Fatal(err)
			}
			return stripCPU(res)
		})
	})
	t.Run("ablation", func(t *testing.T) {
		paralleltest.Invariant(t, func(par int) any {
			run := *r
			run.P.Parallelism = par
			res, err := run.AblationTasks([]int{40})
			if err != nil {
				t.Fatal(err)
			}
			return stripCPU(res)
		})
	})
}

func TestRunSweepFailFastSequential(t *testing.T) {
	// A poisoned job must surface its error, and the jobs queued behind
	// it must be skipped: sequential execution makes the skip count
	// deterministic. xs iterate x-major over the runner's two days, so
	// poisoning xs[1] fails at job index 2 and leaves jobs 3..7 unrun.
	r := testRunner(t)
	r.P.Parallelism = 1
	poison := errors.New("poisoned sweep job")
	var calls atomic.Int32
	_, err := r.runSweep(0, "x", []float64{1, 2, 3, 4}, []string{"s"},
		func(day int, x float64) ([]core.Metrics, error) {
			calls.Add(1)
			if x == 2 {
				return nil, poison
			}
			return []core.Metrics{{}}, nil
		})
	if !errors.Is(err, poison) {
		t.Fatalf("sweep error = %v, want the poisoned job's error", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("eval ran %d times, want 3 (two clean jobs, the poisoned one, rest skipped)", got)
	}
}

func TestRunSweepFailFastParallel(t *testing.T) {
	// Under fan-out the error must surface and later-queued jobs must be
	// skipped. Job 0 is always claimed first and is the poisoned one;
	// every clean eval blocks until the poison has fired and then sleeps,
	// so by the time any worker claims a second job the failure flag is
	// long set — if the fail-fast check were removed, all 16 evals would
	// run and the skip assertion below would catch it.
	r := testRunner(t)
	r.P.Parallelism = 8
	poison := errors.New("poisoned sweep job")
	poisoned := make(chan struct{})
	var calls atomic.Int32
	_, err := r.runSweep(0, "x", []float64{1, 2, 3, 4, 5, 6, 7, 8}, []string{"s"},
		func(day int, x float64) ([]core.Metrics, error) {
			calls.Add(1)
			if x == 1 && day == r.P.Days[0] { // job 0, the first claim
				close(poisoned)
				return nil, poison
			}
			<-poisoned
			time.Sleep(20 * time.Millisecond)
			return []core.Metrics{{}}, nil
		})
	if !errors.Is(err, poison) {
		t.Fatalf("sweep error = %v, want the poisoned job's error", err)
	}
	if got := calls.Load(); got < 1 || got > 15 {
		t.Errorf("eval ran %d of 16 jobs; fail-fast must skip at least the last-queued job", got)
	}
}

func TestRunSweepMultiplePoisonedJobs(t *testing.T) {
	// With several poisoned jobs a poisoned error always surfaces; the
	// sequential path deterministically reports the first job's error
	// (errs is scanned in job order), while fan-out may fail-fast-skip
	// the earlier job and report whichever poisoned job actually ran.
	r := testRunner(t)
	errA := errors.New("first poisoned job")
	errB := errors.New("second poisoned job")
	for _, par := range paralleltest.WorkerCounts {
		r.P.Parallelism = par
		_, err := r.runSweep(0, "x", []float64{1, 2}, []string{"s"},
			func(day int, x float64) ([]core.Metrics, error) {
				if x == 1 {
					return nil, errA
				}
				return nil, errB
			})
		if !errors.Is(err, errA) && !errors.Is(err, errB) {
			t.Fatalf("parallelism %d: error = %v, want a poisoned job's error", par, err)
		}
		if par == 1 && !errors.Is(err, errA) {
			t.Fatalf("sequential sweep error = %v, want the first job's (%v)", err, errA)
		}
	}
}
