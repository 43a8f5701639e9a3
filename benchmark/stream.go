package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"time"

	"dita/internal/assign"
	"dita/internal/atomicio"
	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/engine"
	"dita/internal/fwio"
	"dita/internal/influence"
	"dita/internal/model"
	"dita/internal/randx"
	"dita/internal/trace"
)

// Seed labels: every input of a run derives from -seed through
// randx.Mix with one of these, so no two streams share a seed.
const (
	seedWorkers uint64 = iota + 1
	seedTasks
	seedShifts
	seedInfluence
	seedSnapshots
)

// gridStep is one instant of the replay grid: the workers whose shift
// ended by At (arrival indices), then the arrivals due by At (the
// half-open prefixes of the time-sorted traces up to WorkerHi and
// TaskHi), then the instant itself. This is simulate.Platform.Run's
// admission order, with departures first.
type gridStep struct {
	At               float64
	Departs          []int32
	WorkerHi, TaskHi int
}

// departure is a worker's scheduled end of shift.
type departure struct {
	at     float64
	worker int32
}

// schedule lays the time-sorted arrivals and departures onto the
// instant grid start, start+step, … up to start+horizon. Instants are
// indexed by integer so the grid does not drift, exactly as
// simulate.Platform.Run does.
func schedule(ws []engine.WorkerArrival, ts []engine.TaskArrival, deps []departure, start, step, horizon float64) []gridStep {
	count := int(math.Floor(horizon/step + 1e-9))
	out := make([]gridStep, 0, count+1)
	wi, ti, di := 0, 0, 0
	for i := 0; i <= count; i++ {
		now := start + float64(i)*step
		var departs []int32
		for di < len(deps) && deps[di].at <= now {
			departs = append(departs, deps[di].worker)
			di++
		}
		for wi < len(ws) && ws[wi].At <= now {
			wi++
		}
		for ti < len(ts) && ts[ti].Publish <= now {
			ti++
		}
		out = append(out, gridStep{At: now, Departs: departs, WorkerHi: wi, TaskHi: ti})
	}
	return out
}

// streamInputs is a stream workload's generated input: the arrival
// traces and the grid they replay on.
type streamInputs struct {
	ws    []engine.WorkerArrival
	ts    []engine.TaskArrival
	sched []gridStep
}

// buildStream generates a workload's traces from the seed. Workers and
// tasks come from separate trace.Build draws when their counts differ;
// shifts are drawn per worker in arrival order.
func buildStream(data *dataset.Data, sp streamSpec, seed uint64) (*streamInputs, error) {
	p := trace.Params{
		Arrivals: sp.Workers, Seed: randx.Mix(seed, seedWorkers),
		Start: sp.Start, Spread: sp.Spread, RadiusKm: sp.RadiusKm,
		ValidMin: sp.ValidMin, ValidSpan: sp.ValidSpan,
	}
	ws, ts, err := trace.Build(data, p)
	if err != nil {
		return nil, err
	}
	if sp.Tasks != sp.Workers {
		p.Arrivals, p.Seed = sp.Tasks, randx.Mix(seed, seedTasks)
		if _, ts, err = trace.Build(data, p); err != nil {
			return nil, err
		}
	}
	var deps []departure
	if sp.ShiftMin > 0 || sp.ShiftSpan > 0 {
		rng := randx.New(randx.Mix(seed, seedShifts))
		deps = make([]departure, len(ws))
		for i, w := range ws {
			deps[i] = departure{at: w.At + sp.ShiftMin + rng.Float64()*sp.ShiftSpan, worker: int32(i)}
		}
		slices.SortStableFunc(deps, func(a, b departure) int {
			switch {
			case a.at < b.at:
				return -1
			case a.at > b.at:
				return 1
			}
			return 0
		})
	}
	return &streamInputs{ws: ws, ts: ts, sched: schedule(ws, ts, deps, sp.Start, sp.Step, sp.Spread)}, nil
}

// engineConfig is the engine every replay of the workload runs: the IA
// algorithm under the workload's influence mask.
func engineConfig(mask influence.Components, seed uint64, parallelism int) engine.Config {
	return engine.Config{
		Algorithm: assign.IA, Components: mask,
		Seed: randx.Mix(seed, seedInfluence), Parallelism: parallelism,
	}
}

// replayResult is one replay of a stream through a fresh engine.
type replayResult struct {
	wall    time.Duration
	fires   []time.Duration
	events  int // arrivals and departures applied
	failed  int // events the engine refused
	csv     []byte
	totals  engine.Totals
	online  int
	open    int
	samples []instantSample // traced replays only
}

// replay drives the inputs through a fresh engine in grid order, timing
// every Fire from outside. A worker departs only while it is still
// pooled; its platform id is its arrival index, which replay checks on
// every admission because departures address workers by it. With a
// non-nil tracer the engine gets the benchmark clock, and every instant
// records a Fire span with its phases and a layer sample.
func replay(fw *core.Framework, in *streamInputs, cfg engine.Config, tr *tracer, group string) (*replayResult, error) {
	if tr != nil {
		cfg.Clock = engine.Clock(clk)
	}
	eng, err := engine.New(fw, cfg)
	if err != nil {
		return nil, err
	}
	res := &replayResult{fires: make([]time.Duration, 0, len(in.sched))}
	if tr != nil {
		res.samples = make([]instantSample, 0, len(in.sched))
	}
	instants := make([]engine.InstantResult, 0, len(in.sched))
	assigned := make([]bool, len(in.ws))
	wi, ti := 0, 0
	apply := func(ev engine.Event) engine.Applied {
		ap, err := eng.Apply(ev)
		if err != nil {
			res.failed++
		} else {
			res.events++
		}
		return ap
	}
	start := clk()
	for _, st := range in.sched {
		for _, w := range st.Departs {
			if !assigned[w] {
				apply(engine.Event{Kind: engine.WorkerDepart, At: st.At, WorkerID: model.WorkerID(w)})
			}
		}
		for ; wi < st.WorkerHi; wi++ {
			if ap := apply(engine.Event{Kind: engine.WorkerArrive, At: st.At, Worker: in.ws[wi]}); ap.WorkerID != model.WorkerID(wi) {
				return nil, fmt.Errorf("worker arrival %d minted platform id %d", wi, ap.WorkerID)
			}
		}
		for ; ti < st.TaskHi; ti++ {
			apply(engine.Event{Kind: engine.TaskArrive, At: st.At, Task: in.ts[ti]})
		}
		f0 := clk()
		ir := eng.Fire(st.At)
		f1 := clk()
		res.fires = append(res.fires, f1-f0)
		for _, p := range ir.Assigned {
			assigned[p.Worker] = true
		}
		if tr != nil {
			res.samples = append(res.samples, sampleInstant(eng, &ir, f1-f0))
			id := tr.add(group, "engine.Fire", 0, f0, f1)
			tr.addPhases(group, id, f0, []string{"influence.prepare", "assign.pairs", "assign.solve"},
				[]time.Duration{ir.Prepare, ir.PairMaint, ir.Metrics.CPU})
		}
		ir.Pairs = nil // positional duplicate of Assigned; only Assigned is rendered
		instants = append(instants, ir)
	}
	res.wall = clk() - start
	res.csv = engine.AssignCSV(instants)
	res.totals = eng.Totals()
	res.online, res.open = eng.Online(), eng.Open()
	return res, nil
}

func sampleInstant(eng *engine.Engine, ir *engine.InstantResult, fire time.Duration) instantSample {
	s := instantSample{
		fire: fire, prepare: ir.Prepare, pairs: ir.PairMaint, solve: ir.Metrics.CPU,
		feasible:   ir.Metrics.Feasible,
		components: ir.Tiles.Components, largest: ir.Tiles.LargestComponent,
		online: ir.OnlineWorkers, open: ir.OpenTasks,
	}
	if sess := eng.Session(); sess != nil {
		s.cachedTasks = sess.Influence().CachedTasks()
		s.cachedUsers = sess.Influence().CachedWorkers()
	}
	return s
}

// checkConservation verifies that every arrival is accounted for: a
// task is assigned, expired, withdrawn or still open; a worker is
// assigned, departed or still online.
func checkConservation(t engine.Totals, online, open, workers, tasks int) error {
	if got := t.Assigned + t.Expired + t.Cancelled + open; got != tasks {
		return fmt.Errorf("task conservation: assigned %d + expired %d + cancelled %d + open %d = %d, arrived %d",
			t.Assigned, t.Expired, t.Cancelled, open, got, tasks)
	}
	if got := t.Assigned + t.Departed + online; got != workers {
		return fmt.Errorf("worker conservation: assigned %d + departed %d + online %d = %d, arrived %d",
			t.Assigned, t.Departed, online, got, workers)
	}
	return nil
}

// checkReplay gates one replay: pool conservation, and output identical
// to the first replay of the run.
func checkReplay(r *replayResult, in *streamInputs, first []byte) error {
	if err := checkConservation(r.totals, r.online, r.open, len(in.ws), len(in.ts)); err != nil {
		return err
	}
	if first != nil && !bytes.Equal(r.csv, first) {
		return fmt.Errorf("replay output differs from the first replay of the run")
	}
	return nil
}

// loadInputs is the set-up a stream or serve run repeats: generate the
// dataset, load the sealed framework, open an engine on it. It reports
// the stages' medians and returns the last repetition's dataset and
// framework with every repetition's total time.
func loadInputs(job childJob, cfg engine.Config, m *metrics) (*dataset.Data, *core.Framework, []time.Duration, error) {
	var data *dataset.Data
	var fw *core.Framework
	var total, gen, load []time.Duration
	for range setupReps {
		data, fw = nil, nil
		settle()
		t0 := clk()
		d, err := dataset.Generate(job.Scale.Dataset)
		if err != nil {
			return nil, nil, nil, err
		}
		t1 := clk()
		f, _, err := fwio.Load(job.Artifact)
		if err != nil {
			return nil, nil, nil, err
		}
		t2 := clk()
		if _, err := engine.New(f, cfg); err != nil {
			return nil, nil, nil, err
		}
		t3 := clk()
		total = append(total, t3-t0)
		gen = append(gen, t1-t0)
		load = append(load, t2-t1)
		data, fw = d, f
	}
	m.addMedianMs("dataset.generate_ms", gen)
	m.addMedianMs("fwio.load_ms", load)
	return data, fw, total, nil
}

// runStream is the in-process stream workload: replays through fresh
// engines, closed loop. Untraced, it repeats until the time budget is
// spent (at least MinReps times) and reports throughput and Fire latency
// pooled over the replays. Traced, it makes one untraced replay, one
// traced replay at the workload's parallelism and one at parallelism 1.
func runStream(job childJob, sp streamSpec) (*report, error) {
	rep := &report{}
	cfg := engineConfig(sp.Mask, job.Seed, sp.Parallelism)
	data, fw, setups, err := loadInputs(job, cfg, &rep.Metrics)
	if err != nil {
		return nil, err
	}
	rep.Metrics.add("setup_s", median(durationsSeconds(setups)), "s")
	t0 := clk()
	in, err := buildStream(data, sp, job.Seed)
	if err != nil {
		return nil, err
	}
	rep.Metrics.add("trace.build_ms", ms(clk()-t0), "ms")

	var runs []*replayResult
	run := func(cfg engine.Config, tr *tracer, group string) (*replayResult, error) {
		settle()
		r, err := replay(fw, in, cfg, tr, group)
		if err != nil {
			return nil, err
		}
		var first []byte
		if len(runs) > 0 {
			first = runs[0].csv
		}
		if err := checkReplay(r, in, first); err != nil {
			return nil, err
		}
		runs = append(runs, r)
		rep.Attempted += r.events + r.failed + len(in.sched)
		rep.Failed += r.failed
		return r, nil
	}

	if job.Trace {
		plain, err := run(cfg, nil, "")
		if err != nil {
			return nil, err
		}
		tr := &tracer{}
		traced, err := run(cfg, tr, "replay")
		if err != nil {
			return nil, err
		}
		p1 := cfg
		p1.Parallelism = 1
		single, err := run(p1, tr, "replay.p1")
		if err != nil {
			return nil, err
		}
		rep.Spans = tr.spans
		rep.Metrics.addLayers(traced.samples, "")
		rep.Metrics.addLayers(single.samples, ".p1")
		rep.Metrics.add("engine.apply_ms", ms(traced.wall-sum(traced.fires)), "ms")
		rep.Metrics.addTraceOverhead(traced.wall, plain.wall)
	} else {
		budget := time.Duration(job.Seconds * float64(time.Second))
		start := clk()
		for len(runs) < sp.MinReps || clk()-start < budget {
			if _, err := run(cfg, nil, ""); err != nil {
				return nil, err
			}
		}
		var eps, walls, fires, apply []float64
		for _, r := range runs {
			eps = append(eps, float64(r.events)/r.wall.Seconds())
			walls = append(walls, r.wall.Seconds())
			fires = append(fires, durationsMs(r.fires)...)
			apply = append(apply, ms(r.wall-sum(r.fires)))
		}
		rep.Metrics.add("events_per_s", median(eps), "1/s")
		if err := rep.Metrics.requirePercentile("instant_p50_ms", fires, 50); err != nil {
			return nil, err
		}
		if err := rep.Metrics.requirePercentile("instant_p95_ms", fires, 95); err != nil {
			return nil, err
		}
		rep.Metrics.addPercentile("instant_p99_ms", fires, 99)
		rep.Metrics.add("wall_s", median(walls), "s")
		rep.Metrics.add("engine.apply_ms", median(apply), "ms")
	}
	last := runs[len(runs)-1]
	rep.Metrics.add("bench.reps", float64(len(runs)), "count")
	rep.Metrics.add("engine.events", float64(last.events), "count")
	rep.Metrics.add("engine.assigned", float64(last.totals.Assigned), "count")
	rep.Metrics.add("engine.departed", float64(last.totals.Departed), "count")
	rep.Metrics.add("engine.expired", float64(last.totals.Expired), "count")
	rep.Output = atomicio.Sum(runs[0].csv)
	return rep, nil
}
