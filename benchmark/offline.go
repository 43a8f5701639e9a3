package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dita/internal/assign"
	"dita/internal/atomicio"
	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/experiments"
	"dita/internal/fwio"
	"dita/internal/influence"
	"dita/internal/randx"
)

// offlineFigure is the paper figure the workload produces: Fig. 9, the
// |S| sweep on the Brightkite-like dataset with all five algorithms.
const offlineFigure = 9

func offlineParams(sp offlineSpec, seed uint64) experiments.Params {
	return experiments.Params{
		NumWorkers: sp.NumWorkers, ValidHours: sp.ValidHours, RadiusKm: sp.RadiusKm,
		Days: sp.Days, Seed: randx.Mix(seed, seedSnapshots), Parallelism: sp.Parallelism,
	}
}

// figureCSV renders the figure as experiments writes it, without the
// cpu_ms column: every other column is a function of the seed alone, so
// two runs must agree byte for byte.
func figureCSV(res *experiments.Result) ([]byte, error) {
	var full bytes.Buffer
	if err := res.WriteCSV(&full); err != nil {
		return nil, err
	}
	rows, err := csv.NewReader(&full).ReadAll()
	if err != nil {
		return nil, err
	}
	cpu := slices.Index(rows[0], "cpu_ms")
	if cpu < 0 {
		return nil, fmt.Errorf("figure CSV has no cpu_ms column")
	}
	var out bytes.Buffer
	w := csv.NewWriter(&out)
	for _, row := range rows {
		if err := w.Write(slices.Delete(row, cpu, cpu+1)); err != nil {
			return nil, err
		}
	}
	w.Flush()
	return out.Bytes(), w.Error()
}

// jobClock is an experiments.Checkpoint that holds no jobs and times
// every job: the sweep looks a job up as it starts and records it when
// it completes, on whichever pool worker ran it.
type jobClock struct {
	mu      sync.Mutex
	started map[jobKey]time.Duration
	lat     []time.Duration
}

type jobKey struct {
	x   float64
	day int
}

func (c *jobClock) Lookup(_ string, _ int, x float64, day int) ([]core.Metrics, bool) {
	now := clk()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started[jobKey{x, day}] = now
	return nil, false
}

func (c *jobClock) Record(_ string, _ int, x float64, day int, _ []core.Metrics) error {
	now := clk()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lat = append(c.lat, now-c.started[jobKey{x, day}])
	return nil
}

// figureRun is one RunFigureRaw of the workload.
type figureRun struct {
	raw  *experiments.SweepRaw
	wall time.Duration
	jobs []time.Duration // each job's latency, in completion order
	csv  []byte
}

func runFigure(r *experiments.Runner, sw experiments.Sweeps) (*figureRun, error) {
	jc := &jobClock{started: map[jobKey]time.Duration{}}
	r.P.Checkpoint = jc
	settle()
	t0 := clk()
	raw, err := r.RunFigureRaw(offlineFigure, sw)
	if err != nil {
		return nil, err
	}
	wall := clk() - t0
	res, err := raw.Reduce()
	if err != nil {
		return nil, err
	}
	out, err := figureCSV(res)
	if err != nil {
		return nil, err
	}
	return &figureRun{raw: raw, wall: wall, jobs: jc.lat, csv: out}, nil
}

// runOffline is the Table-II figure workload: experiments.NewRunner
// trains the framework, then RunFigureRaw produces Fig. 9. An instant
// here is one figure job: a snapshot assigned by all five algorithms.
// Untraced, the figure repeats until the time budget is spent and
// MinJobs job latencies are pooled. Traced, one untraced figure is
// followed by a re-drive of training and of every job through their
// public calls.
func runOffline(job childJob) (*report, error) {
	sp := job.Scale.Offline
	rep := &report{}
	m := &rep.Metrics
	var data *dataset.Data
	var gens []time.Duration
	for range setupReps {
		data = nil
		settle()
		t0 := clk()
		d, err := dataset.Generate(job.Scale.Dataset)
		if err != nil {
			return nil, err
		}
		gens = append(gens, clk()-t0)
		data = d
	}
	m.add("setup_s", median(durationsSeconds(gens)), "s")
	m.addMedianMs("dataset.generate_ms", gens)

	p := offlineParams(sp, job.Seed)
	if cut, err := p.TrainingCutoff(); err != nil || cut != job.Scale.Cutoff {
		return nil, fmt.Errorf("offline days %v do not train at the benchmark cutoff %gh", sp.Days, job.Scale.Cutoff)
	}
	sw := experiments.DefaultSweeps()
	sw.Tasks = sp.Tasks

	settle()
	t0 := clk()
	r, err := experiments.NewRunner(data, job.Scale.Train, p)
	if err != nil {
		return nil, err
	}
	train := clk() - t0
	_, trained, err := fwio.Encode(r.FW, frameworkSource(job.Scale))
	if err != nil {
		return nil, err
	}
	rep.Framework = trained

	var runs []*figureRun
	figure := func() (*figureRun, error) {
		f, err := runFigure(r, sw)
		if err != nil {
			return nil, err
		}
		if len(runs) > 0 && !bytes.Equal(f.csv, runs[0].csv) {
			return nil, fmt.Errorf("figure differs from the first figure of the run")
		}
		runs = append(runs, f)
		rep.Attempted += len(f.raw.Jobs)
		return f, nil
	}

	if job.Trace {
		plain, err := figure()
		if err != nil {
			return nil, err
		}
		tr := &tracer{}
		t0 := clk()
		fw, err := trainStaged(data, job.Scale, tr, m)
		if err != nil {
			return nil, err
		}
		staged := clk() - t0
		path := filepath.Join(job.Work, "framework.json")
		sealed, err := fwio.Write(path, fw, frameworkSource(job.Scale))
		if err != nil {
			return nil, err
		}
		if sealed != trained {
			return nil, fmt.Errorf("staged training sealed %.12s…, core.Train %.12s…", sealed, trained)
		}
		var loads []time.Duration
		for range setupReps {
			t0 := clk()
			if _, _, err := fwio.Load(path); err != nil {
				return nil, err
			}
			loads = append(loads, clk()-t0)
		}
		m.addMedianMs("fwio.load_ms", loads)
		redriven, err := redriveFigure(fw, data, p, sw, plain.raw, tr, m)
		if err != nil {
			return nil, err
		}
		rep.Spans = tr.spans
		m.addTraceOverhead(staged+redriven, train+plain.wall)
	} else {
		budget := time.Duration(job.Seconds * float64(time.Second))
		start := clk()
		var jobs, eps, walls []float64
		for len(runs) == 0 || clk()-start < budget || len(jobs) < sp.MinJobs {
			f, err := figure()
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, durationsMs(f.jobs)...)
			entities := 0
			for _, j := range f.raw.Jobs {
				entities += j.Metrics[0].NumWorkers + j.Metrics[0].NumTasks
			}
			eps = append(eps, float64(entities)/f.wall.Seconds())
			walls = append(walls, f.wall.Seconds())
		}
		m.add("events_per_s", median(eps), "1/s")
		if err := m.requirePercentile("instant_p50_ms", jobs, 50); err != nil {
			return nil, err
		}
		if err := m.requirePercentile("instant_p95_ms", jobs, 95); err != nil {
			return nil, err
		}
		m.add("wall_s", train.Seconds()+median(walls), "s")
		m.add("experiments.figure_s", median(walls), "s")
	}
	m.add("experiments.train_s", train.Seconds(), "s")
	m.add("experiments.jobs", float64(len(runs[0].raw.Jobs)), "count")
	m.add("bench.reps", float64(len(runs)), "count")
	rep.Output = atomicio.Sum(runs[0].csv)
	return rep, nil
}

// jobTiming is one re-driven figure job: its stage boundaries on the
// benchmark clock and what each stage produced.
type jobTiming struct {
	start, snapshot, prepare, pairs time.Duration
	solves                          []time.Duration // per algorithm, back to back after pairs
	metrics                         []core.Metrics
	sample                          instantSample
	err                             error
}

// redriveFigure runs every job of the figure again through the public
// calls it is made of — Data.Snapshot, a single-use session's Prepare,
// assign.FeasiblePairs, and the assignment per algorithm — on the same
// number of workers as the sweep, timing each stage from outside. The
// re-driven metrics must equal RunFigureRaw's (CPU aside), so the layer
// numbers describe the work the figure does. It returns the wall time.
func redriveFigure(fw *core.Framework, data *dataset.Data, p experiments.Params, sw experiments.Sweeps, raw *experiments.SweepRaw, tr *tracer, m *metrics) (time.Duration, error) {
	nd := len(p.Days)
	jobs := make([]jobTiming, len(sw.Tasks)*nd)
	var next atomic.Int64
	var wg sync.WaitGroup
	settle()
	t0 := clk()
	for range max(p.Parallelism, 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1)) - 1; j < len(jobs); j = int(next.Add(1)) - 1 {
				jobs[j] = redriveJob(fw, data, p, sw.Tasks[j/nd], p.Days[j%nd])
			}
		}()
	}
	wg.Wait()
	wall := clk() - t0

	if len(raw.Jobs) != len(jobs) {
		return 0, fmt.Errorf("figure ran %d jobs, re-drive %d", len(raw.Jobs), len(jobs))
	}
	var samples []instantSample
	var snapshots []float64
	perAlg := make([][]float64, len(assign.Algorithms))
	for j, jt := range jobs {
		if jt.err != nil {
			return 0, jt.err
		}
		want := raw.Jobs[j].Metrics
		for ai := range jt.metrics {
			got, ref := jt.metrics[ai], want[ai]
			got.CPU, ref.CPU = 0, 0
			if got != ref {
				return 0, fmt.Errorf("re-driven job x=%d day=%d %s: %+v, figure has %+v",
					sw.Tasks[j/nd], p.Days[j%nd], got.Algorithm, got, ref)
			}
			perAlg[ai] = append(perAlg[ai], ms(jt.metrics[ai].CPU))
		}
		samples = append(samples, jt.sample)
		snapshots = append(snapshots, ms(jt.snapshot-jt.start))

		group := fmt.Sprintf("job/x=%d/day=%d", sw.Tasks[j/nd], p.Days[j%nd])
		end := jt.pairs + sum(jt.solves)
		id := tr.add(group, "experiments.job", 0, jt.start, end)
		tr.add(group, "dataset.snapshot", id, jt.start, jt.snapshot)
		tr.add(group, "influence.prepare", id, jt.snapshot, jt.prepare)
		tr.add(group, "assign.pairs", id, jt.prepare, jt.pairs)
		at := jt.pairs
		for ai, d := range jt.solves {
			tr.add(group, "assign.solve."+assign.Algorithms[ai].String(), id, at, at+d)
			at += d
		}
	}
	m.addLayers(samples, "")
	m.add("dataset.snapshot_ms", mean(snapshots), "ms")
	for ai, alg := range assign.Algorithms {
		m.add("assign.solve_ms."+alg.String(), mean(perAlg[ai]), "ms")
	}
	return wall, nil
}

// redriveJob is one figure job, exactly as experiments evaluates it: the
// day's snapshot at the sweep value, a single-use session at parallelism
// 1 seeded by the day, one feasibility scan shared by every algorithm.
func redriveJob(fw *core.Framework, data *dataset.Data, p experiments.Params, tasks, day int) jobTiming {
	var jt jobTiming
	jt.start = clk()
	inst, err := data.Snapshot(dataset.SnapshotParams{
		Day: day, NumTasks: tasks, NumWorkers: p.NumWorkers,
		ValidHours: p.ValidHours, RadiusKm: p.RadiusKm, Seed: p.Seed,
	})
	if err != nil {
		jt.err = err
		return jt
	}
	jt.snapshot = clk()
	sess := fw.PrepareSession(influence.All, randx.Mix(p.Seed, uint64(day)), 1)
	ev := sess.Prepare(inst)
	jt.prepare = clk()
	pairs := assign.FeasiblePairs(inst, fw.Speed())
	jt.pairs = clk()
	var stats assign.TileStats
	for _, alg := range assign.Algorithms {
		a0 := clk()
		_, am, ts := fw.AssignPreparedPairsTiled(inst, ev, alg, pairs, 1)
		jt.solves = append(jt.solves, clk()-a0)
		jt.metrics = append(jt.metrics, am)
		stats = ts
	}
	var solve time.Duration
	for _, am := range jt.metrics {
		solve += am.CPU
	}
	jt.sample = instantSample{
		fire: jt.pairs + sum(jt.solves) - jt.start, prepare: jt.prepare - jt.snapshot,
		pairs: jt.pairs - jt.prepare, solve: solve, feasible: len(pairs),
		components: stats.Components, largest: stats.LargestComponent,
		cachedTasks: sess.Influence().CachedTasks(), cachedUsers: sess.Influence().CachedWorkers(),
		online: len(inst.Workers), open: len(inst.Tasks),
	}
	return jt
}
