// Command dita-sim runs one task-assignment instance end to end: it
// loads (or generates) a dataset, trains the DITA framework, snapshots
// one day, runs the chosen algorithm and prints the assignment and its
// metrics. It is the manual-inspection tool of the repository.
//
// With -stream it instead replays a deterministic arrival trace
// (internal/trace) on a fixed instant grid and writes the streaming
// assignment CSV. The replay runs through the in-process streaming
// engine (engine.Engine.Replay), or — with -serve URL — over HTTP
// against the named region of a live dita-serve, which owns the
// framework and drains the CSV itself. The two forms post the same
// events, so the CI serve smoke diffs their CSVs byte for byte. The
// server's own flags decide its framework, engine configuration and
// CSV, so -serve refuses -framework, -train-out, -assign-csv, -alg,
// -mask, -seed and -parallel when any is set.
// -serve-speedup > 0 paces the arrivals on the wall clock instead and
// leaves the instants to the server's trigger.
//
// -train-out seals the trained framework into a fwio artifact;
// -framework loads one instead of training (the source fingerprint must
// match this run's dataset and cutoff).
//
// Usage:
//
//	dita-sim -preset bk -day 25 -tasks 500 -workers 400 -alg IA
//	dita-sim -data ./data/bk -day 25 -alg EIA -mask IA-AW -v
//	dita-sim -preset bk -alg MI -parallel 4 -assign-csv /tmp/mi.csv
//	dita-sim -stream -train-out /tmp/fw.json -assign-csv /tmp/stream.csv
//	dita-sim -stream -serve http://127.0.0.1:8080/v1/default
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"dita/internal/assign"
	"dita/internal/atomicio"
	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/engine"
	"dita/internal/fwio"
	"dita/internal/influence"
	"dita/internal/model"
	"dita/internal/trace"
)

func main() {
	log.SetFlags(0)
	var (
		dataDir = flag.String("data", "", "load a dataset directory written by dita-datagen (overrides -preset)")
		preset  = flag.String("preset", "bk", "generate a dataset preset: bk or fs")
		day     = flag.Int("day", 25, "evaluation day (training uses days before it)")
		tasks   = flag.Int("tasks", 500, "|S| tasks in the instance")
		workers = flag.Int("workers", 400, "|W| workers in the instance")
		valid   = flag.Float64("valid", 5, "task valid time ϕ in hours")
		radius  = flag.Float64("radius", 25, "worker reachable radius r in km")
		algName = flag.String("alg", "IA", "algorithm: MTA, IA, EIA, DIA, MI or MIX (exact max-influence ablation)")
		mask    = flag.String("mask", "IA", "influence components: IA (all), IA-WP, IA-AP or IA-AW")
		seed    = flag.Uint64("seed", 1, "instance sampling seed")
		par     = flag.Int("parallel", 0, "worker pool bound for the online phase, feasibility scan and solve (0 = all cores); outputs are bit-identical")
		csvPath = flag.String("assign-csv", "", "write the assignment as CSV to this path (deterministic; for diffing runs)")
		verbose = flag.Bool("v", false, "print every assigned pair")

		fwPath   = flag.String("framework", "", "load a sealed framework artifact instead of training (source must match this run)")
		trainOut = flag.String("train-out", "", "seal the trained framework into this fwio artifact")

		stream    = flag.Bool("stream", false, "replay an arrival trace through the streaming engine instead of one snapshot instance")
		arrivals  = flag.Int("arrivals", 400, "stream: workers and tasks in the trace (one of each per index)")
		traceSeed = flag.Uint64("trace-seed", 1, "stream: trace sampling seed")
		spread    = flag.Float64("spread", 12, "stream: arrival window length in hours, starting at the evaluation day")
		validSpan = flag.Float64("valid-span", 2, "stream: task validity is uniform in [-valid, -valid + -valid-span)")
		step      = flag.Float64("step", 0.5, "stream: hours between assignment instants")
		horizon   = flag.Float64("horizon", 24, "stream: simulated hours after the evaluation day")

		serve        = flag.String("serve", "", "stream: replay the trace against this dita-serve region URL (e.g. http://127.0.0.1:8080/v1/default) instead of in process")
		serveSpeedup = flag.Float64("serve-speedup", 0, "serve: wall-clock pacing multiple of trace time; 0 = grid replay with explicit instants")
	)
	flag.Parse()

	if *serve != "" {
		if !*stream {
			log.Fatal("-serve replays a trace; it requires -stream")
		}
		// The server's flags decide these, even a flag set to its default.
		var owned []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "framework", "train-out", "assign-csv", "alg", "mask", "seed", "parallel":
				owned = append(owned, "-"+f.Name)
			}
		})
		if len(owned) > 0 {
			log.Fatalf("-serve: the server owns the framework, the engine configuration and the assignment CSV; %s do not apply", strings.Join(owned, ", "))
		}
	}

	alg, err := assign.ParseAlgorithm(*algName)
	if err != nil {
		log.Fatal(err)
	}
	comps, err := influence.ParseComponents(*mask)
	if err != nil {
		log.Fatal(err)
	}

	var data *dataset.Data
	if *dataDir != "" {
		data, err = dataset.Load(*dataDir)
		if err != nil {
			log.Fatalf("load: %v", err)
		}
	} else {
		p, err := dataset.Preset(*preset)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now() //dita:wallclock
		data, err = dataset.Generate(p)
		if err != nil {
			log.Fatalf("generate: %v", err)
		}
		fmt.Printf("dataset %s generated in %.1fs (%d check-ins)\n",
			p.Name, time.Since(start).Seconds(), data.NumCheckIns()) //dita:wallclock
	}

	cutoff := float64(*day) * 24
	if *stream {
		// The trace is rebuilt from (dataset, trace flags) rather than
		// shipped, so the in-process and -serve forms replay the identical
		// workload. It is built before the framework, so a bad trace flag
		// fails before any training.
		ws, ts, err := trace.Build(data, trace.Params{
			Arrivals: *arrivals, Seed: *traceSeed, Start: cutoff, Spread: *spread,
			RadiusKm: *radius, ValidMin: *valid, ValidSpan: *validSpan,
		})
		if err != nil {
			log.Fatal(err)
		}
		var fw *core.Framework
		if *serve == "" {
			fw = framework(data, cutoff, *fwPath, *trainOut)
		}
		runStream(fw, ws, ts, streamParams{
			alg: alg, comps: comps, seed: *seed, par: *par,
			arrivals: *arrivals, start: cutoff,
			step: *step, horizon: *horizon, csvPath: *csvPath,
			serve: *serve, serveSpeedup: *serveSpeedup,
		})
		return
	}
	fw := framework(data, cutoff, *fwPath, *trainOut)

	inst, err := data.Snapshot(dataset.SnapshotParams{
		Day: *day, NumTasks: *tasks, NumWorkers: *workers,
		ValidHours: *valid, RadiusKm: *radius, Seed: *seed,
	})
	if err != nil {
		log.Fatalf("snapshot: %v", err)
	}

	feas, tiles := assign.TiledFeasiblePairs(inst, fw.Speed(), *par)
	start := time.Now() //dita:wallclock
	ev := fw.PrepareSession(comps, *seed, *par).PreparePairs(inst, feas)
	fmt.Printf("influence model (%s) prepared in %.1fs\n", comps, time.Since(start).Seconds()) //dita:wallclock

	set, m, ts := fw.AssignPreparedPairsTiled(inst, ev, alg, feas, *par)
	ts.Tiles = tiles
	if err := set.Validate(len(inst.Tasks), len(inst.Workers)); err != nil {
		log.Fatalf("invalid assignment: %v", err)
	}

	fmt.Printf("\n%s on day %d (|S|=%d, |W|=%d, ϕ=%gh, r=%gkm):\n",
		alg, *day, *tasks, *workers, *valid, *radius)
	fmt.Printf("  assigned tasks       %d\n", m.Assigned)
	fmt.Printf("  feasible pairs       %d\n", m.Feasible)
	fmt.Printf("  spatial tiles        %d\n", ts.Tiles)
	fmt.Printf("  graph components     %d (largest %d pairs)\n", ts.Components, ts.LargestComponent)
	fmt.Printf("  average influence    %.4f\n", m.AI)
	fmt.Printf("  average propagation  %.4f\n", m.AP)
	fmt.Printf("  average travel       %.2f km\n", m.TravelKm)
	fmt.Printf("  assignment CPU       %s\n", m.CPU.Round(time.Millisecond))

	if *csvPath != "" {
		if err := writeAssignCSV(*csvPath, inst, set); err != nil {
			log.Fatalf("assign-csv: %v", err)
		}
		fmt.Printf("  assignment CSV       %s (%d rows)\n", *csvPath, set.Len())
	}

	if *verbose {
		fmt.Println("\nassignments:")
		for i, pr := range set.Pairs {
			fmt.Printf("  task %4d -> worker %4d (user %4d)  if=%.4f  d=%.2fkm\n",
				pr.Task, pr.Worker, inst.Workers[pr.Worker].User,
				set.Influence[i], set.TravelKm[i])
		}
	}
}

// framework loads the sealed artifact at fwPath — refusing one trained
// on another source — or trains a fresh framework on the days before
// cutoff, and seals it to trainOut when that is set.
func framework(data *dataset.Data, cutoff float64, fwPath, trainOut string) *core.Framework {
	source := data.Params.FrameworkSource(cutoff)
	var fw *core.Framework
	if fwPath != "" {
		loaded, info, err := fwio.Load(fwPath)
		if err != nil {
			log.Fatalf("framework: %v", err)
		}
		if info.Source != source {
			log.Fatalf("%s: artifact trained on %q, this run needs %q", fwPath, info.Source, source)
		}
		fmt.Printf("loaded framework from %s (sha256 %.12s…)\n", fwPath, info.Checksum)
		fw = loaded
	} else {
		start := time.Now() //dita:wallclock
		var err error
		fw, err = core.Train(core.TrainingDataFrom(data, cutoff), core.Config{TopWillingnessLocations: 8})
		if err != nil {
			log.Fatalf("train: %v", err)
		}
		fmt.Printf("framework trained in %.1fs\n", time.Since(start).Seconds()) //dita:wallclock
	}
	if trainOut != "" {
		sum, err := fwio.Write(trainOut, fw, source)
		if err != nil {
			log.Fatalf("train-out: %v", err)
		}
		fmt.Printf("framework sealed to %s (sha256 %.12s…)\n", trainOut, sum)
	}
	return fw
}

// streamParams bundles everything the -stream replay needs.
type streamParams struct {
	alg   assign.Algorithm
	comps influence.Components
	seed  uint64
	par   int

	arrivals      int
	start         float64
	step, horizon float64
	csvPath       string

	// serve, when set, is the dita-serve region URL the trace is posted
	// to instead of the in-process engine; serveSpeedup paces it.
	serve        string
	serveSpeedup float64
}

// runStream replays the arrival trace (ws, ts) on its instant grid: over
// HTTP to the dita-serve region p.serve names, or through an in-process
// streaming engine over fw (nil with p.serve, since the server owns the
// framework), printing the run summary. Both forms replay the identical
// workload, so their assignment CSVs can be diffed byte for byte.
func runStream(fw *core.Framework, ws []engine.WorkerArrival, ts []engine.TaskArrival, p streamParams) {
	grid := engine.Grid{Start: p.start, Step: p.step, Horizon: p.horizon}
	if p.serve != "" {
		if err := runServe(p.serve, p.serveSpeedup, grid, ws, ts); err != nil {
			log.Fatalf("serve: %v", err)
		}
		return
	}
	clockStart := time.Now() //dita:wallclock
	eng, err := engine.New(fw, engine.Config{
		Algorithm: p.alg, Components: p.comps, Seed: p.seed, Parallelism: p.par,
		Clock: func() time.Duration { return time.Since(clockStart) }, //dita:wallclock
	})
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Now() //dita:wallclock
	instants, err := eng.Replay(grid, ws, ts)
	if err != nil {
		log.Fatalf("stream: %v", err)
	}
	elapsed := time.Since(wall) //dita:wallclock
	totals := eng.Totals()

	fmt.Printf("\n%s streamed over [%g, %g]h in %g-h instants (%d arrivals each side):\n",
		p.alg, p.start, p.start+p.horizon, p.step, p.arrivals)
	fmt.Printf("  instants             %d\n", totals.Instants)
	fmt.Printf("  assigned tasks       %d\n", totals.Assigned)
	fmt.Printf("  expired tasks        %d\n", totals.Expired)
	fmt.Printf("  completion rate      %.4f\n", totals.CompletionRate())
	fmt.Printf("  still online/open    %d/%d\n", eng.Online(), eng.Open())
	fmt.Printf("  replay wall time     %s\n", elapsed.Round(time.Millisecond))

	if p.csvPath != "" {
		csv := engine.AssignCSV(instants)
		if err := atomicio.WriteFile(p.csvPath, csv, 0o644); err != nil {
			log.Fatalf("assign-csv: %v", err)
		}
		fmt.Printf("  assignment CSV       %s (%d rows)\n", p.csvPath, totals.Assigned)
	}
}

// writeAssignCSV dumps the assignment in a fully deterministic text
// form: floats print as the shortest decimal that parses back exactly,
// so two runs that are bit-identical produce byte-identical files — the
// property the CI smoke that diffs runs at different -parallel values
// relies on. The write goes
// through atomicio like every other artifact write, so a run killed
// mid-dump can never leave a torn CSV where the smoke's cmp (or any
// other consumer) would read it.
func writeAssignCSV(path string, inst *model.Instance, set *model.AssignmentSet) error {
	var b strings.Builder
	b.WriteString("task,worker,user,influence,travel_km\n")
	for i, pr := range set.Pairs {
		fmt.Fprintf(&b, "%d,%d,%d,%s,%s\n",
			pr.Task, pr.Worker, inst.Workers[pr.Worker].User,
			strconv.FormatFloat(set.Influence[i], 'g', -1, 64),
			strconv.FormatFloat(set.TravelKm[i], 'g', -1, 64))
	}
	return atomicio.WriteFile(path, []byte(b.String()), 0o644)
}
