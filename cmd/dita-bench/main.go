// Command dita-bench regenerates the paper's evaluation figures (5–16)
// on the simulated Brightkite-like and FourSquare-like datasets and
// prints each figure's series as aligned tables (and optionally CSV).
//
// Usage:
//
//	dita-bench [-datasets bk,fs] [-figures all|5,9,15] [-scale full|quick]
//	           [-csv dir] [-days n] [-parallel n]
//	           [-train-out fw_bk.json,fw_fs.json | -framework fw_bk.json,fw_fs.json]
//	           [-shard k/N -shard-out file.json] [-merge 'glob']
//	           [-orchestrate N -shard-dir dir]
//
// A full run with -scale full uses Table II defaults (|S|=1500, |W|=1200,
// ϕ=5h, r=25km, sweeps as in the paper) and takes a few minutes; -scale
// quick shrinks instance sizes ~5× for a fast smoke pass.
//
// -shard k/N runs this process as worker k of an N-way sharded sweep:
// only its deterministic slice of every figure's (sweep value × day)
// job grid is evaluated, and the raw per-job metrics are written to
// -shard-out as a JSON artifact instead of tables. Run all N workers
// (any machines, any order) with identical -datasets/-figures/-scale/
// -days/-seed flags, then combine the artifacts with -merge 'glob',
// which validates the set (no missing, duplicate or overlapping shard)
// and emits the usual tables and CSV — bit-identical to a
// single-process run in every column except cpu_ms, which is each
// process's measured wall clock.
//
// Sharded workers are crash-safe: every completed (figure, x, day) job
// is appended to a checkpoint journal (<shard-out>.journal) before the
// sweep moves on, the final artifact is written atomically
// (write-to-temp + fsync + rename) and sealed with a content checksum
// that every load verifies, and a relaunched worker replays the journal
// and re-runs only unfinished jobs. SIGINT/SIGTERM flush the journal,
// scrub temp files and exit with code 75, which a supervisor treats as
// retryable.
//
// -orchestrate N runs the whole sharded sweep under supervision: it
// spawns the N shard workers as subprocesses (artifacts in -shard-dir),
// restarts crashed, interrupted, corrupt-output or deadline-overrunning
// workers with capped exponential backoff (deterministic jitter),
// fails fast after repeated identical deterministic failures, and
// finishes with the validating merge — one command from nothing to
// fault-tolerant figures. The orchestrator trains each dataset's
// framework exactly once (into -shard-dir) and hands the sealed
// artifact to every worker, so an N-way sweep pays for one training,
// not N.
//
// -train-out trains the framework for each dataset (one artifact path
// per -datasets entry) and exits: the offline phase of Figure 2,
// persisted. The artifact is a versioned JSON envelope sealed with a
// SHA-256 content checksum, written atomically. -framework is the
// serving half: it loads pre-trained artifacts instead of training, in
// normal, shard-worker and orchestrate runs. Every load verifies the seal and that the artifact
// was trained for this run's dataset and cutoff; a sweep served from an
// artifact is bit-identical to one that retrained in-process (cpu_ms
// wall clock aside).
//
// -parallel bounds the worker pool used for the whole training phase
// (dataset generation, LDA Gibbs, mobility fitting, RRR sampling) and
// the (day × sweep-value) fan-out; 0 (the default) means all cores.
// Every figure's series is bit-identical for every setting — only the
// CPU(ms) column, which times each assignment's own wall clock, moves.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dita/internal/atomicio"
	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/experiments"
	"dita/internal/fwio"
)

func main() {
	log.SetFlags(0)
	var (
		datasetsFlag = flag.String("datasets", "bk,fs", "comma-separated datasets: bk, fs")
		figuresFlag  = flag.String("figures", "all", "comma-separated figure numbers (5-16) or 'all'")
		scale        = flag.String("scale", "full", "experiment scale: full (Table II) or quick")
		csvDir       = flag.String("csv", "", "directory to also write per-figure CSV files")
		days         = flag.Int("days", 0, "override the number of evaluation days")
		seed         = flag.Uint64("seed", 42, "experiment seed")
		par          = flag.Int("parallel", 0, "worker pool bound for sampling and sweeps (0 = all cores)")
		trainOut     = flag.String("train-out", "", "train the framework(s) and write sealed artifacts to these paths (one per -datasets entry), then exit")
		framework    = flag.String("framework", "", "load pre-trained framework artifacts from these paths (one per -datasets entry) instead of training")
		shardFlag    = flag.String("shard", "", "run as worker k of an N-way sharded sweep (k/N); requires -shard-out")
		shardOut     = flag.String("shard-out", "", "file the sharded worker writes its raw-metrics JSON artifact to")
		mergeFlag    = flag.String("merge", "", "merge shard artifacts matching this glob into the figures and exit")
		orchestrate  = flag.Int("orchestrate", 0, "supervise an N-way sharded sweep: spawn, retry and merge N shard workers")
		shardDir     = flag.String("shard-dir", "", "directory for the orchestrated workers' artifacts (default: a temp dir, removed on success)")
		shardTimeout = flag.Duration("shard-timeout", 15*time.Minute, "per-attempt deadline for an orchestrated worker (0 = none)")
		retries      = flag.Int("retries", 3, "how many times the orchestrator relaunches a failed worker")
		retryBase    = flag.Duration("retry-base", time.Second, "base delay of the orchestrator's capped exponential backoff")
	)
	flag.Parse()

	if *trainOut != "" && *framework != "" {
		log.Fatal("-train-out and -framework are mutually exclusive: train fresh or serve a saved framework, not both")
	}
	if *mergeFlag != "" && (*trainOut != "" || *framework != "") {
		log.Fatal("-merge combines finished artifacts; -train-out/-framework do not apply")
	}
	if *orchestrate != 0 && *trainOut != "" {
		log.Fatal("-orchestrate trains once into -shard-dir automatically; -train-out is a standalone mode")
	}
	if *trainOut != "" && (*shardFlag != "" || *shardOut != "") {
		log.Fatal("-train-out is a whole-framework training mode; it cannot be combined with -shard/-shard-out")
	}
	names := splitList(*datasetsFlag)
	for _, name := range names {
		if _, err := dataset.Preset(name); err != nil {
			log.Fatal(err)
		}
	}
	installSignalHandler()
	if *mergeFlag != "" {
		if *shardFlag != "" || *shardOut != "" || *orchestrate != 0 {
			log.Fatal("-merge is a coordinator mode; it cannot be combined with -shard/-shard-out/-orchestrate")
		}
		if err := runMerge(*mergeFlag, *csvDir); err != nil {
			log.Fatalf("merge: %v", err)
		}
		return
	}
	if *orchestrate != 0 {
		if *shardFlag != "" || *shardOut != "" {
			log.Fatal("-orchestrate is a supervisor mode; it cannot be combined with -shard/-shard-out")
		}
		var fwPaths []string
		if *framework != "" {
			// Validate the artifacts now — seal, source, dataset alignment —
			// so a bad path fails here, not inside N workers in parallel.
			var err error
			if _, _, err = loadFrameworks(*framework, names, *scale, *days, *seed, *par); err != nil {
				log.Fatalf("framework: %v", err)
			}
			fwPaths = splitList(*framework)
		}
		err := runOrchestrate(orchestrateConfig{
			workers:    *orchestrate,
			shardDir:   *shardDir,
			csvDir:     *csvDir,
			timeout:    *shardTimeout,
			maxRetries: *retries,
			retryBase:  *retryBase,
			seed:       *seed,
			datasets:   names,
			frameworks: fwPaths,
			trainFramework: func(name, outPath string) (string, error) {
				dp, err := dataset.Preset(name)
				if err != nil {
					return "", err
				}
				return trainArtifact(dp, *scale, *days, *seed, *par, outPath)
			},
			workerArgs: []string{
				"-datasets", *datasetsFlag,
				"-figures", *figuresFlag,
				"-scale", *scale,
				"-days", strconv.Itoa(*days),
				"-seed", strconv.FormatUint(*seed, 10),
				"-parallel", strconv.Itoa(*par),
			},
		})
		if err != nil {
			log.Fatalf("orchestrate: %v", err)
		}
		return
	}
	if *trainOut != "" {
		paths := splitList(*trainOut)
		if len(paths) != len(names) {
			log.Fatalf("-train-out needs one artifact path per dataset: %d datasets, %d paths", len(names), len(paths))
		}
		for i, name := range names {
			dp, _ := dataset.Preset(name)
			sum, err := trainArtifact(dp, *scale, *days, *seed, *par, paths[i])
			if err != nil {
				log.Fatalf("train-out: %v", err)
			}
			fmt.Printf("trained framework for %s -> %s (sha256 %.12s…)\n", name, paths[i], sum)
		}
		return
	}
	if *shardDir != "" {
		log.Fatal("-shard-dir only applies to -orchestrate")
	}
	var shard experiments.Shard
	if *shardFlag != "" {
		var err error
		if shard, err = experiments.ParseShard(*shardFlag); err != nil {
			log.Fatal(err)
		}
		if *shardOut == "" {
			log.Fatal("-shard requires -shard-out (the artifact the worker writes)")
		}
		if *csvDir != "" {
			log.Fatal("-csv is a coordinator output; a sharded worker holds only a partial grid (pass -csv to -merge instead)")
		}
	} else if *shardOut != "" {
		log.Fatal("-shard-out requires -shard")
	}

	wanted := map[int]bool{}
	if *figuresFlag == "all" {
		for f := 5; f <= 16; f++ {
			wanted[f] = true
		}
	} else {
		for _, tok := range strings.Split(*figuresFlag, ",") {
			f, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || f < 5 || f > 16 {
				log.Fatalf("bad figure %q (want 5..16)", tok)
			}
			wanted[f] = true
		}
	}

	// Pre-trained frameworks are loaded before the journal opens so their
	// checksums can be bound into the journal signature below.
	var (
		fws    []*core.Framework
		fwSums []string
	)
	if *framework != "" {
		var err error
		if fws, fwSums, err = loadFrameworks(*framework, names, *scale, *days, *seed, *par); err != nil {
			log.Fatalf("framework: %v", err)
		}
	}

	// A sharded worker checkpoints every completed job into a journal
	// next to its artifact, so a crashed or killed worker's relaunch
	// resumes mid-grid instead of re-running the whole slice. The
	// journal is bound to the exact invocation (flags, shard, seed) AND
	// the framework source — the artifact checksums when serving saved
	// frameworks, the literal trained-from-seed otherwise — so a journal
	// written under one framework can never splice its jobs into a run
	// under another: a leftover journal from different flags or a
	// foreign framework is rejected, not replayed.
	var journal *experiments.Journal
	if *shardFlag != "" {
		fwSrc := "trained-from-seed"
		if len(fwSums) > 0 {
			fwSrc = strings.Join(fwSums, ",")
		}
		sig := fmt.Sprintf("datasets=%s figures=%s scale=%s days=%d fw=%s", *datasetsFlag, *figuresFlag, *scale, *days, fwSrc)
		var err error
		journal, err = experiments.OpenJournal(*shardOut+journalSuffix, sig, shard, *seed)
		if err != nil {
			log.Fatalf("journal: %v", err)
		}
		activeJournal.Store(journal)
		if journal.Truncated {
			log.Printf("shard %s: journal %s had a torn tail (crashed predecessor); dropped it, intact records kept", shard, journal.Path())
		}
		if n := journal.Resumed(); n > 0 {
			fmt.Printf("shard %s: resumed %d completed jobs from journal %s\n", shard, n, journal.Path())
		}
	}

	var shardFigs []*experiments.SweepRaw
	for i, name := range names {
		dp, _ := dataset.Preset(name)
		var fw *core.Framework
		if fws != nil {
			fw = fws[i]
		}
		shardFigs = append(shardFigs, runDataset(dp, fw, wanted, *scale, *csvDir, *days, *seed, *par, shard, *shardFlag != "", journal)...)
	}
	if *shardFlag != "" {
		sr := &experiments.ShardResult{Shard: shard, Seed: *seed, Figures: shardFigs}
		out, err := sr.Encode()
		if err != nil {
			log.Fatalf("shard-out: %v", err)
		}
		if err := atomicio.WriteFile(*shardOut, out, 0o644); err != nil {
			log.Fatalf("shard-out: %v", err)
		}
		// The artifact is sealed and durable; the journal is now
		// redundant and would only confuse a later invocation.
		activeJournal.Store(nil)
		if err := journal.Remove(); err != nil {
			log.Fatalf("journal: %v", err)
		}
		jobs, resumed := 0, 0
		for _, raw := range shardFigs {
			jobs += len(raw.Jobs)
			resumed += raw.Resumed
		}
		fmt.Printf("shard %s: wrote %d figures (%d jobs, %d resumed) to %s\n", shard, len(shardFigs), jobs, resumed, *shardOut)
	}
}

// journalSuffix derives a worker's checkpoint-journal path from its
// artifact path.
const journalSuffix = ".journal"

// retryableExitCode is the exit status a worker uses for "I was
// interrupted, my checkpoint is flushed, run me again" — EX_TEMPFAIL by
// sysexits convention. The orchestrator retries it without counting it
// toward the identical-failure fail-fast.
const retryableExitCode = 75

// activeJournal is the journal the signal handler flushes: set once the
// worker opens it, cleared once the sealed artifact makes it redundant.
var activeJournal atomic.Pointer[experiments.Journal]

// installSignalHandler makes SIGINT/SIGTERM a clean, retryable death:
// flush the checkpoint journal so no completed job is lost, scrub
// in-flight temp files so no *.tmp debris survives, and exit with the
// code supervisors treat as "relaunch me". (SIGKILL is untrappable —
// that path is covered by the journal's per-record fsync and the
// loaders' temp-skipping and checksum validation instead.)
func installSignalHandler() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-ch
		if j := activeJournal.Load(); j != nil {
			j.Sync()
		}
		atomicio.RemoveTemps()
		fmt.Fprintf(os.Stderr, "dita-bench: caught %v; checkpoint flushed, exiting retryable\n", s)
		os.Exit(retryableExitCode)
	}()
}

// runMerge combines the shard artifacts matching glob into full figure
// grids, validates completeness, and emits the usual tables (and CSV):
// the coordinator half of a sharded sweep. No dataset generation or
// training happens here — everything needed is in the artifacts.
func runMerge(glob, csvDir string) error {
	paths, tmps, err := experiments.GlobArtifacts(glob)
	if err != nil {
		return err
	}
	for _, tmp := range tmps {
		log.Printf("warning: skipping leftover temp artifact %s (a writer died mid-write)", tmp)
	}
	if len(paths) == 0 {
		return fmt.Errorf("no shard artifacts match %q", glob)
	}
	shards, err := experiments.LoadShardSet(paths)
	if err != nil {
		return err
	}
	for i, sr := range shards {
		fmt.Printf("loaded shard %s from %s (%d figures)\n", sr.Shard, paths[i], len(sr.Figures))
	}
	raws, err := experiments.MergeRaw(shards)
	if err != nil {
		return err
	}
	fmt.Println()
	for _, raw := range raws {
		res, err := raw.Reduce()
		if err != nil {
			return err
		}
		printFigure(res, experiments.FigureMetrics(raw.Fig))
		if csvDir != "" {
			if err := writeCSV(csvDir, csvName(raw.Fig, raw.Dataset), res); err != nil {
				return err
			}
		}
	}
	return nil
}

// printFigure renders one figure's tables: the single-metric form for
// the ablations, all five tables otherwise.
func printFigure(res *experiments.Result, metrics []experiments.Metric) {
	if len(metrics) == 1 {
		res.FormatTable(os.Stdout, metrics[0])
		fmt.Println()
		return
	}
	res.FormatAll(os.Stdout, metrics)
}

func csvName(fig int, dataset string) string {
	return fmt.Sprintf("fig%02d_%s.csv", fig, strings.ToLower(dataset))
}

// splitList splits a comma-separated flag value into trimmed non-empty
// entries.
func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// evalParams resolves the evaluation protocol for one dataset: the
// scale's parameter set and sweep grids, with the seed, pool bound and
// day-window override applied. It refuses an override longer than the
// dataset, whose evaluation window would start before day 0.
func evalParams(dp dataset.Params, scale string, daysOverride int, seed uint64, par int) (experiments.Params, experiments.Sweeps, error) {
	if daysOverride > dp.Days {
		return experiments.Params{}, experiments.Sweeps{}, fmt.Errorf("-days %d exceeds the %d days of dataset %s", daysOverride, dp.Days, dp.Name)
	}
	params := experiments.Default()
	sweeps := experiments.DefaultSweeps()
	if scale == "quick" {
		params = experiments.Quick()
		sweeps = experiments.QuickSweeps()
	}
	params.Seed = seed
	params.Parallelism = par
	if daysOverride > 0 {
		params.Days = params.Days[:0]
		last := dp.Days - 1
		for d := last - daysOverride + 1; d <= last; d++ {
			params.Days = append(params.Days, d)
		}
	}
	return params, sweeps, nil
}

// trainConfig is the framework training configuration every mode of
// this command shares; artifacts are only interchangeable with
// retraining because both sides use it.
func trainConfig(par int) core.Config {
	return core.Config{TopWillingnessLocations: 8, Parallelism: par}
}

// trainArtifact runs the offline phase for one dataset — generate,
// train, seal — and writes the framework artifact to outPath, returning
// its content checksum.
func trainArtifact(dp dataset.Params, scale string, daysOverride int, seed uint64, par int, outPath string) (string, error) {
	params, _, err := evalParams(dp, scale, daysOverride, seed, par)
	if err != nil {
		return "", err
	}
	cutoff, err := params.TrainingCutoff()
	if err != nil {
		return "", err
	}
	dp.Parallelism = par
	start := time.Now() //dita:wallclock
	data, err := dataset.Generate(dp)
	if err != nil {
		return "", fmt.Errorf("generate %s: %w", dp.Name, err)
	}
	runner, err := experiments.NewRunner(data, trainConfig(par), params)
	if err != nil {
		return "", fmt.Errorf("train %s: %w", dp.Name, err)
	}
	sum, err := fwio.Write(outPath, runner.FW, dp.FrameworkSource(cutoff))
	if err != nil {
		return "", err
	}
	fmt.Printf("    %s: trained in %.1fs (%d RRR sets, %d mobility models)\n",
		dp.Name, time.Since(start).Seconds(), //dita:wallclock
		runner.FW.Propagation().NumSets(), runner.FW.Mobility().NumWorkers())
	return sum, nil
}

// loadFrameworks loads one pre-trained artifact per dataset and checks
// each against the training input this invocation would have used —
// same dataset parameters, same cutoff — so a framework can never serve
// a sweep it was not fitted for. Returns the frameworks and their
// content checksums (the journal-signature binding).
func loadFrameworks(list string, names []string, scale string, daysOverride int, seed uint64, par int) ([]*core.Framework, []string, error) {
	paths := splitList(list)
	if len(paths) != len(names) {
		return nil, nil, fmt.Errorf("-framework needs one artifact per dataset: %d datasets, %d paths", len(names), len(paths))
	}
	var (
		fws  []*core.Framework
		sums []string
	)
	for i, name := range names {
		dp, err := dataset.Preset(name)
		if err != nil {
			return nil, nil, err
		}
		params, _, err := evalParams(dp, scale, daysOverride, seed, par)
		if err != nil {
			return nil, nil, err
		}
		cutoff, err := params.TrainingCutoff()
		if err != nil {
			return nil, nil, err
		}
		fw, info, err := fwio.Load(paths[i])
		if err != nil {
			return nil, nil, err
		}
		if want := dp.FrameworkSource(cutoff); info.Source != want {
			return nil, nil, fmt.Errorf("%s: artifact trained on %q, this run needs %q", paths[i], info.Source, want)
		}
		fmt.Printf("loaded framework for %s from %s (sha256 %.12s…)\n", name, paths[i], info.Checksum)
		fws = append(fws, fw)
		sums = append(sums, info.Checksum)
	}
	return fws, sums, nil
}

// runDataset evaluates the wanted figures on one dataset, serving from
// the pre-trained framework when fw is non-nil and training in-process
// otherwise. In normal mode it prints tables (and optional CSV) and
// returns nil; as a sharded worker it runs only the shard's slice of
// each figure's job grid and returns the raw sweeps for the caller's
// artifact.
func runDataset(dp dataset.Params, fw *core.Framework, wanted map[int]bool, scale, csvDir string, daysOverride int, seed uint64, par int, shard experiments.Shard, workerMode bool, journal *experiments.Journal) []*experiments.SweepRaw {
	any := false
	for f := range wanted {
		if experiments.FigureOnDataset(f, dp.Name) {
			any = true
		}
	}
	if !any {
		return nil
	}

	params, sweeps, err := evalParams(dp, scale, daysOverride, seed, par)
	if err != nil {
		log.Fatal(err)
	}
	params.Shard = shard
	if journal != nil {
		params.Checkpoint = journal
	}

	fmt.Printf("=== dataset %s: generating (%d users, %d venues, %d days, seed %d)\n",
		dp.Name, dp.NumUsers, dp.NumVenues, dp.Days, dp.Seed)
	start := time.Now() //dita:wallclock
	dp.Parallelism = par
	data, err := dataset.Generate(dp)
	if err != nil {
		log.Fatalf("generate %s: %v", dp.Name, err)
	}
	fmt.Printf("    %d check-ins, %d social edges (%.1fs)\n",
		data.NumCheckIns(), data.Graph.M(), time.Since(start).Seconds()) //dita:wallclock

	start = time.Now() //dita:wallclock
	var runner *experiments.Runner
	if fw != nil {
		runner, err = experiments.NewRunnerFromFramework(data, fw, params)
		if err != nil {
			log.Fatalf("framework %s: %v", dp.Name, err)
		}
		fmt.Printf("    DITA framework served from artifact: %d RRR sets, %d mobility models\n\n",
			runner.FW.Propagation().NumSets(), runner.FW.Mobility().NumWorkers())
	} else {
		runner, err = experiments.NewRunner(data, trainConfig(par), params)
		if err != nil {
			log.Fatalf("train %s: %v", dp.Name, err)
		}
		fmt.Printf("    DITA framework trained (%.1fs): %d RRR sets, %d mobility models\n\n",
			time.Since(start).Seconds(), //dita:wallclock
			runner.FW.Propagation().NumSets(), runner.FW.Mobility().NumWorkers())
	}

	var out []*experiments.SweepRaw
	for fig := 5; fig <= 16; fig++ {
		if !wanted[fig] || !runner.HasFigure(fig) {
			continue
		}
		start := time.Now() //dita:wallclock
		if workerMode {
			raw, err := runner.RunFigureRaw(fig, sweeps)
			if err != nil {
				log.Fatalf("figure %d on %s: %v", fig, dp.Name, err)
			}
			fmt.Printf("    [figure %d on %s: shard %s ran %d of %d jobs (%d resumed) in %.1fs]\n",
				fig, dp.Name, shard, len(raw.Jobs), len(raw.Xs)*len(raw.Days), raw.Resumed, time.Since(start).Seconds()) //dita:wallclock
			out = append(out, raw)
			continue
		}
		res, err := runner.RunFigure(fig, sweeps)
		if err != nil {
			log.Fatalf("figure %d on %s: %v", fig, dp.Name, err)
		}
		printFigure(res, experiments.FigureMetrics(fig))
		fmt.Printf("    [figure %d on %s finished in %.1fs]\n\n", fig, dp.Name, time.Since(start).Seconds()) //dita:wallclock
		if csvDir != "" {
			if err := writeCSV(csvDir, csvName(fig, dp.Name), res); err != nil {
				log.Fatalf("csv: %v", err)
			}
		}
	}
	return out
}

func writeCSV(dir, name string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		return err
	}
	return atomicio.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644)
}
