// Package experiments reproduces the paper's evaluation (Section V): the
// parameter sweeps behind Figures 5–16 on the two simulated datasets,
// with the Table-II defaults. Each sweep produces a Result whose rows are
// exactly the series a figure plots; the Format methods print them as
// aligned tables and CSV.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"

	"dita/internal/assign"
	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/influence"
	"dita/internal/model"
	"dita/internal/parallel"
	"dita/internal/randx"
)

// Params carries the experimental defaults of Table II plus the
// evaluation protocol (which days to average over).
type Params struct {
	NumTasks   int     // |S| default 1500
	NumWorkers int     // |W| default 1200
	ValidHours float64 // ϕ default 5 h
	RadiusKm   float64 // r default 25 km
	Days       []int   // evaluation days (paper: 4 days of a month)
	Seed       uint64
	// Parallelism bounds how many (day × sweep-value) evaluations run
	// concurrently in the sweep drivers; <= 0 means
	// runtime.GOMAXPROCS(0). Every metric row is bit-identical for
	// every setting except CPU(ms), which times each assignment's own
	// wall clock and therefore inflates a little under core contention;
	// set Parallelism to 1 for figure-grade CPU measurements. Each
	// in-flight job holds its own instance, feasible-pair list and
	// influence evaluator (dense |S|×|W_G| float32 willingness rows only
	// under masks without propagation, such as IA-AW; otherwise entries
	// only at the feasible workers' RRR roots), so peak memory grows
	// linearly with the knob — lower it on wide machines with large
	// sweeps.
	Parallelism int
	// Shard restricts the sweeps to this process's slice of the
	// (figure × x × day) job grid (see Shard): RunFigure then refuses
	// to reduce — a partial grid has no honest averages — and the raw
	// sweeps of RunFigureRaw are collected into a ShardResult artifact
	// instead, merged later by MergeRaw with the other shards'. The
	// zero value runs everything in-process, unsharded.
	Shard Shard
	// Checkpoint, when non-nil, makes the sweeps resumable: each
	// completed (figure, x, day) job is recorded before the sweep moves
	// on, and a job the checkpoint already holds is skipped — its
	// recorded metrics are used verbatim. Shard workers plug a Journal
	// in here so a crashed worker's successor re-runs only unfinished
	// jobs. Determinism makes the splice exact: a recorded job's
	// metrics are bit-identical to what re-evaluation would produce
	// (CPU wall clock aside, which is measured, not computed).
	Checkpoint Checkpoint
}

// Default returns the paper's Table II settings, evaluated over the last
// four days of the simulated month (training uses everything before the
// first evaluation day).
func Default() Params {
	return Params{
		NumTasks:   1500,
		NumWorkers: 1200,
		ValidHours: 5,
		RadiusKm:   25,
		Days:       []int{25, 26, 27, 28},
		Seed:       42,
	}
}

// Quick returns a reduced protocol for tests and smoke runs: smaller
// instances, two evaluation days.
func Quick() Params {
	return Params{
		NumTasks:   300,
		NumWorkers: 240,
		ValidHours: 5,
		RadiusKm:   25,
		Days:       []int{25, 26},
		Seed:       42,
	}
}

// Sweep values used by the paper's figures.
var (
	TaskSweep      = []int{500, 1000, 1500, 2000, 2500}
	WorkerSweep    = []int{400, 800, 1200, 1600, 2000}
	ValidTimeSweep = []float64{1, 2, 3, 4, 5, 6}
	RadiusSweep    = []float64{5, 10, 15, 20, 25}
)

// Sweeps bundles the per-axis sweep grids one evaluation scale uses, so
// figure dispatch (RunFigure) needs a single value rather than four.
type Sweeps struct {
	Tasks   []int
	Workers []int
	Valid   []float64
	Radius  []float64
}

// DefaultSweeps returns the paper's figure sweeps.
func DefaultSweeps() Sweeps {
	return Sweeps{Tasks: TaskSweep, Workers: WorkerSweep, Valid: ValidTimeSweep, Radius: RadiusSweep}
}

// QuickSweeps shrinks the instance-size sweeps ~5× to match Quick's
// reduced instances; the time and radius axes are protocol parameters
// and stay as in the paper.
func QuickSweeps() Sweeps {
	return Sweeps{
		Tasks:   []int{100, 200, 300, 400, 500},
		Workers: []int{80, 160, 240, 320, 400},
		Valid:   ValidTimeSweep,
		Radius:  RadiusSweep,
	}
}

// Row is one (x, algorithm) cell of a figure: every metric the paper
// plots for that combination, averaged over the evaluation days.
type Row struct {
	X        float64
	Alg      string
	CPUms    float64
	Assigned float64
	AI       float64
	AP       float64
	TravelKm float64
}

// Metric selects one of the five reported measurements.
type Metric string

// The five metrics of Figures 9–16 (Figures 5–8 plot AI only).
const (
	MetricCPU      Metric = "CPU(ms)"
	MetricAssigned Metric = "Assigned"
	MetricAI       Metric = "AI"
	MetricAP       Metric = "AP"
	MetricTravel   Metric = "Travel(km)"
)

// AllMetrics lists the metrics in the order the paper's sub-figures use.
var AllMetrics = []Metric{MetricCPU, MetricAssigned, MetricAI, MetricAP, MetricTravel}

func (r Row) metric(m Metric) float64 {
	switch m {
	case MetricCPU:
		return r.CPUms
	case MetricAssigned:
		return r.Assigned
	case MetricAI:
		return r.AI
	case MetricAP:
		return r.AP
	case MetricTravel:
		return r.TravelKm
	default:
		return 0
	}
}

// Result is one full sweep: the data behind one figure (all sub-plots).
type Result struct {
	Figure  string // e.g. "Fig. 9"
	Dataset string // "BK" or "FS"
	XLabel  string // e.g. "|S|"
	Rows    []Row
}

// Algorithms returns the distinct algorithm names in first-seen order.
func (r *Result) Algorithms() []string {
	var out []string
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if !seen[row.Alg] {
			seen[row.Alg] = true
			out = append(out, row.Alg)
		}
	}
	return out
}

// Xs returns the sorted distinct sweep values.
func (r *Result) Xs() []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, row := range r.Rows {
		if !seen[row.X] {
			seen[row.X] = true
			out = append(out, row.X)
		}
	}
	sort.Float64s(out)
	return out
}

// rowKey addresses one (x, algorithm) cell of a figure.
type rowKey struct {
	x   float64
	alg string
}

// rowIndex maps each (x, alg) cell to its first matching row — built
// once per formatting call so a full table renders in O(rows) instead
// of one linear scan per cell.
func (r *Result) rowIndex() map[rowKey]int {
	idx := make(map[rowKey]int, len(r.Rows))
	for i, row := range r.Rows {
		k := rowKey{x: row.X, alg: row.Alg}
		if _, ok := idx[k]; !ok {
			idx[k] = i
		}
	}
	return idx
}

// FormatTable writes one metric of the result as an aligned text table —
// the same rows/series the corresponding sub-figure plots.
func (r *Result) FormatTable(w io.Writer, m Metric) {
	algs := r.Algorithms()
	idx := r.rowIndex()
	fmt.Fprintf(w, "%s %s on %s — %s vs %s\n", r.Figure, m, r.Dataset, m, r.XLabel)
	fmt.Fprintf(w, "%10s", r.XLabel)
	for _, a := range algs {
		fmt.Fprintf(w, "%12s", a)
	}
	fmt.Fprintln(w)
	for _, x := range r.Xs() {
		fmt.Fprintf(w, "%10g", x)
		for _, a := range algs {
			i, ok := idx[rowKey{x: x, alg: a}]
			if !ok {
				fmt.Fprintf(w, "%12s", "-")
				continue
			}
			fmt.Fprintf(w, "%12.4f", r.Rows[i].metric(m))
		}
		fmt.Fprintln(w)
	}
}

// FormatAll writes every metric's table.
func (r *Result) FormatAll(w io.Writer, metrics []Metric) {
	for _, m := range metrics {
		r.FormatTable(w, m)
		fmt.Fprintln(w)
	}
}

// WriteCSV emits the raw rows as CSV (header + one line per Row) with
// RFC 4180 quoting: a field containing a comma, quote or newline is
// quoted, not rewritten, so every value — including the shard artifacts
// that travel through this path when a merge writes its figures —
// parses back losslessly with any conforming reader.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"figure", "dataset", "xlabel", "x", "alg", "cpu_ms", "assigned", "ai", "ap", "travel_km"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write([]string{
			r.Figure, r.Dataset, r.XLabel,
			strconv.FormatFloat(row.X, 'g', -1, 64), row.Alg,
			fmt.Sprintf("%.6f", row.CPUms), fmt.Sprintf("%.2f", row.Assigned),
			fmt.Sprintf("%.6f", row.AI), fmt.Sprintf("%.6f", row.AP), fmt.Sprintf("%.6f", row.TravelKm),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Runner binds a dataset to a trained framework and executes sweeps.
type Runner struct {
	Data *dataset.Data
	FW   *core.Framework
	P    Params
}

// TrainingCutoff returns the online/offline split in hours: everything
// strictly before the earliest evaluation day is training input, and
// the rest is the evaluation stream. It errors when the parameter set
// has no evaluation days at all.
func (p Params) TrainingCutoff() (float64, error) {
	if len(p.Days) == 0 {
		return 0, fmt.Errorf("experiments: no evaluation days")
	}
	minDay := p.Days[0]
	for _, d := range p.Days {
		if d < minDay {
			minDay = d
		}
	}
	return float64(minDay) * 24, nil
}

// NewRunner trains a DITA framework on everything before the first
// evaluation day and returns a runner ready to execute sweeps.
func NewRunner(data *dataset.Data, cfg core.Config, p Params) (*Runner, error) {
	cutoff, err := p.TrainingCutoff()
	if err != nil {
		return nil, err
	}
	fw, err := core.Train(core.TrainingDataFrom(data, cutoff), cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: training: %w", err)
	}
	return &Runner{Data: data, FW: fw, P: p}, nil
}

// NewRunnerFromFramework binds a pre-trained framework (typically
// loaded from a fwio artifact) to the dataset it was fitted on. The
// framework must have been trained at this parameter set's cutoff on
// this dataset for the sweeps to mean anything; the basic shape — one
// theta row and graph node per dataset user — is validated here, while
// provenance (same dataset, same cutoff) is the caller's contract,
// enforced at the harness level via the artifact's recorded source.
func NewRunnerFromFramework(data *dataset.Data, fw *core.Framework, p Params) (*Runner, error) {
	if _, err := p.TrainingCutoff(); err != nil {
		return nil, err
	}
	if fw == nil {
		return nil, fmt.Errorf("experiments: nil framework")
	}
	if fw.Graph().N() != data.Graph.N() {
		return nil, fmt.Errorf("experiments: framework trained on a %d-user graph, dataset has %d users", fw.Graph().N(), data.Graph.N())
	}
	return &Runner{Data: data, FW: fw, P: p}, nil
}

// feasiblePairs computes a sweep point's feasibility exactly once; every
// algorithm and ablation mask of the point shares the result, since the
// solver takes its pairs as authoritative.
func (r *Runner) feasiblePairs(inst *model.Instance) []assign.Pair {
	return assign.FeasiblePairs(inst, r.FW.Speed())
}

type accum struct {
	cpuMs, assigned, ai, ap, travel float64
	n                               int
}

func (a *accum) add(m core.Metrics) {
	a.cpuMs += float64(m.CPU.Microseconds()) / 1000
	a.assigned += float64(m.Assigned)
	a.ai += m.AI
	a.ap += m.AP
	a.travel += m.TravelKm
	a.n++
}

// row averages the accumulated days into the cell's Row. Callers
// guarantee n > 0 — Reduce refuses incomplete grids before averaging —
// so an empty cell can never be reported as measured zeros.
func (a *accum) row(x float64, alg string) Row {
	n := float64(a.n)
	return Row{
		X: x, Alg: alg,
		CPUms:    a.cpuMs / n,
		Assigned: a.assigned / n,
		AI:       a.ai / n,
		AP:       a.ap / n,
		TravelKm: a.travel / n,
	}
}

// runSweep fans this shard's share of the (sweep value × day) job grid
// out over a bounded worker pool and returns the raw per-job metrics.
// Jobs are indexed j = xi·len(Days) + di — x-major, day-minor, the
// sequential order the reduction later averages in — and the shard owns
// those with j % Count == Index. The jobs are independent — the trained
// framework is immutable and every instance is rebuilt from its seed —
// and each writes only its own slot; eval must return one Metrics per
// series, in series order. A failed job flips a flag that makes
// still-queued jobs exit immediately, preserving fail-fast behavior
// under fan-out. Averaging happens exactly once, in SweepRaw.Reduce —
// in-process runs and cross-process merges share that one reduction.
func (r *Runner) runSweep(fig int, xlabel string, xs []float64, series []string, eval func(day int, x float64) ([]core.Metrics, error)) (*SweepRaw, error) {
	if err := r.P.Shard.Validate(); err != nil {
		return nil, err
	}
	shard := r.P.Shard.normalized()
	nd := len(r.P.Days)
	var owned []int // grid indices this shard evaluates, ascending
	for j := 0; j < len(xs)*nd; j++ {
		if shard.owns(j) {
			owned = append(owned, j)
		}
	}
	metrics := make([][]core.Metrics, len(owned)) // per owned job, per series
	errs := make([]error, len(owned))
	var failed atomic.Bool
	var resumed atomic.Int64
	cp := r.P.Checkpoint
	dsName := r.Data.Params.Name
	parallel.For(parallel.Workers(r.P.Parallelism), len(owned), func(_, i int) {
		if failed.Load() {
			return
		}
		j := owned[i]
		day, x := r.P.Days[j%nd], xs[j/nd]
		if cp != nil {
			if ms, ok := cp.Lookup(dsName, fig, x, day); ok {
				if len(ms) != len(series) {
					errs[i] = fmt.Errorf("experiments: checkpointed job (fig %d, x=%g, day %d) holds %d metrics for %d series — stale or foreign journal",
						fig, x, day, len(ms), len(series))
					failed.Store(true)
					return
				}
				metrics[i] = ms
				resumed.Add(1)
				return
			}
		}
		ms, err := eval(day, x)
		if err == nil && len(ms) != len(series) {
			err = fmt.Errorf("experiments: eval returned %d metrics for %d series", len(ms), len(series))
		}
		if err == nil && cp != nil {
			err = cp.Record(dsName, fig, x, day, ms)
		}
		if err != nil {
			errs[i] = err
			failed.Store(true)
			return
		}
		metrics[i] = ms
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	raw := &SweepRaw{
		Fig: fig, Figure: fmt.Sprintf("Fig. %d", fig), Dataset: r.Data.Params.Name,
		XLabel: xlabel, Series: series, Xs: xs, Days: r.P.Days, Shard: shard,
		Jobs:    make([]JobMetrics, 0, len(owned)),
		Resumed: int(resumed.Load()),
	}
	for i, j := range owned {
		raw.Jobs = append(raw.Jobs, JobMetrics{X: xs[j/nd], Day: r.P.Days[j%nd], Metrics: metrics[i]})
	}
	return raw, nil
}

// runComparison executes the five algorithms for each sweep value and
// averages the metrics over the evaluation days; this backs Figures 9–16.
func (r *Runner) runComparison(fig int, xlabel string, xs []float64, makeInst func(day int, x float64) (*model.Instance, error)) (*SweepRaw, error) {
	series := make([]string, len(assign.Algorithms))
	for i, alg := range assign.Algorithms {
		series[i] = alg.String()
	}
	return r.runSweep(fig, xlabel, xs, series, func(day int, x float64) ([]core.Metrics, error) {
		inst, err := makeInst(day, x)
		if err != nil {
			return nil, err
		}
		// A single-use session per job: the sweep fan-out above already
		// saturates the pool, so the online phase runs at parallelism 1
		// inside each job (bit-identical to any other setting). Per-day
		// seeds mix the day in via randx.Mix rather than addition, so
		// nearby days cannot collide with nearby base seeds.
		pairs := r.feasiblePairs(inst)
		ev := r.FW.PrepareSession(influence.All, randx.Mix(r.P.Seed, uint64(day)), 1).PreparePairs(inst, pairs)
		ms := make([]core.Metrics, len(assign.Algorithms))
		for ai, alg := range assign.Algorithms {
			_, m, _ := r.FW.AssignPreparedPairsTiled(inst, ev, alg, pairs, 1)
			ms[ai] = m
		}
		return ms, nil
	})
}

// runAblation executes the IA algorithm under the four component masks
// (IA, IA-WP, IA-AP, IA-AW) for each sweep value; this backs Figures 5–8.
//
// Each variant ASSIGNS with its masked influence model, but — as in the
// paper, where AI (Equation 6) is defined once over the full worker-task
// influence of Section III-D — every resulting assignment is SCORED with
// the full model. The masks therefore change the assignment, and the
// reported AI measures how much worker-task influence that assignment
// actually realizes.
func (r *Runner) runAblation(fig int, xlabel string, xs []float64, makeInst func(day int, x float64) (*model.Instance, error)) (*SweepRaw, error) {
	masks := []influence.Components{influence.All, influence.WP, influence.AP, influence.AW}
	series := make([]string, len(masks))
	for i, mk := range masks {
		series[i] = mk.String()
	}
	return r.runSweep(fig, xlabel, xs, series, func(day int, x float64) ([]core.Metrics, error) {
		inst, err := makeInst(day, x)
		if err != nil {
			return nil, err
		}
		pairs := r.feasiblePairs(inst)
		// Single-use sessions per mask (see runComparison on why each job
		// runs its online phase at parallelism 1).
		daySeed := randx.Mix(r.P.Seed, uint64(day))
		evFull := r.FW.PrepareSession(influence.All, daySeed, 1).PreparePairs(inst, pairs)
		ms := make([]core.Metrics, len(masks))
		for mi, mk := range masks {
			ev := evFull
			if mk != influence.All {
				ev = r.FW.PrepareSession(mk, daySeed, 1).PreparePairs(inst, pairs)
			}
			set, m, _ := r.FW.AssignPreparedPairsTiled(inst, ev, assign.IA, pairs, 1)
			// Rescore the realized assignment under the full model; the
			// assigned pairs are a subset of the prepared ones.
			if set.Len() > 0 {
				sum := 0.0
				for _, pr := range set.Pairs {
					sum += evFull.Influence(int(pr.Worker), int(pr.Task))
				}
				m.AI = sum / float64(set.Len())
			}
			ms[mi] = m
		}
		return ms, nil
	})
}

// axis is the Table-II parameter a figure sweeps.
type axis int

// The four swept parameters of Figures 5–16.
const (
	axisTasks   axis = iota // |S|, Sweeps.Tasks
	axisWorkers             // |W|, Sweeps.Workers
	axisValid               // ϕ, Sweeps.Valid
	axisRadius              // r, Sweeps.Radius
)

// xlabel is the axis label the figure tables and CSVs print.
func (a axis) xlabel() string {
	return [...]string{"|S|", "|W|", "phi(h)", "r(km)"}[a]
}

// values returns the Sweeps field the axis reads, as float64 sweep
// values.
func (a axis) values(sw Sweeps) []float64 {
	var ints []int
	switch a {
	case axisValid:
		return sw.Valid
	case axisRadius:
		return sw.Radius
	case axisTasks:
		ints = sw.Tasks
	default:
		ints = sw.Workers
	}
	out := make([]float64, len(ints))
	for i, x := range ints {
		out[i] = float64(x)
	}
	return out
}

// figureSpec is one figure of the paper's evaluation grid.
type figureSpec struct {
	ablation bool   // Figs. 5–8: IA under the four component masks; else the five algorithms
	axis     axis   // the swept parameter, and so the Sweeps field it reads
	dataset  string // "BK" or "FS"; empty for the ablations, which run on both
}

// figures is the paper's evaluation grid keyed by figure number: the
// ablations 5–8 on both datasets, and the algorithm comparisons
// 9/10 (|S|), 11/12 (|W|), 13/14 (ϕ) and 15/16 (r), odd on BK and even
// on FS.
var figures = map[int]figureSpec{
	5:  {ablation: true, axis: axisTasks},
	6:  {ablation: true, axis: axisWorkers},
	7:  {ablation: true, axis: axisValid},
	8:  {ablation: true, axis: axisRadius},
	9:  {axis: axisTasks, dataset: "BK"},
	10: {axis: axisTasks, dataset: "FS"},
	11: {axis: axisWorkers, dataset: "BK"},
	12: {axis: axisWorkers, dataset: "FS"},
	13: {axis: axisValid, dataset: "BK"},
	14: {axis: axisValid, dataset: "FS"},
	15: {axis: axisRadius, dataset: "BK"},
	16: {axis: axisRadius, dataset: "FS"},
}

// FigureOnDataset reports whether figure fig is evaluated on the named
// dataset.
func FigureOnDataset(fig int, dataset string) bool {
	spec, ok := figures[fig]
	return ok && (spec.dataset == "" || spec.dataset == dataset)
}

// FigureMetrics returns the metrics the paper plots for a figure: AI
// alone for the ablations, all five for the comparisons.
func FigureMetrics(fig int) []Metric {
	if figures[fig].ablation {
		return []Metric{MetricAI}
	}
	return AllMetrics
}

// HasFigure reports whether fig is evaluated on this runner's dataset.
func (r *Runner) HasFigure(fig int) bool {
	return FigureOnDataset(fig, r.Data.Params.Name)
}

// RunFigureRaw executes this shard's share of one figure's job grid
// (fig 5..16, sweeps chosen by the caller's scale) and returns the raw
// per-job metrics — the unit a ShardResult artifact collects.
func (r *Runner) RunFigureRaw(fig int, sw Sweeps) (*SweepRaw, error) {
	if !r.HasFigure(fig) {
		return nil, fmt.Errorf("experiments: figure %d is not evaluated on %s", fig, r.Data.Params.Name)
	}
	spec := figures[fig]
	p := r.P
	makeInst := func(day int, x float64) (*model.Instance, error) {
		sp := dataset.SnapshotParams{
			Day: day, NumTasks: p.NumTasks, NumWorkers: p.NumWorkers,
			ValidHours: p.ValidHours, RadiusKm: p.RadiusKm, Seed: p.Seed,
		}
		switch spec.axis {
		case axisTasks:
			sp.NumTasks = int(x)
		case axisWorkers:
			sp.NumWorkers = int(x)
		case axisValid:
			sp.ValidHours = x
		case axisRadius:
			sp.RadiusKm = x
		}
		return r.Data.Snapshot(sp)
	}
	run := r.runComparison
	if spec.ablation {
		run = r.runAblation
	}
	return run(fig, spec.axis.xlabel(), spec.axis.values(sw), makeInst)
}

// RunFigure is RunFigureRaw plus the reduction — the figure's Result,
// for unsharded in-process runs.
func (r *Runner) RunFigure(fig int, sw Sweeps) (*Result, error) {
	raw, err := r.RunFigureRaw(fig, sw)
	if err != nil {
		return nil, err
	}
	return raw.Reduce()
}
