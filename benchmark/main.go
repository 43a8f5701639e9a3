// Command benchmark is the repository's benchmark: four workloads that
// each make one layer of the system its hot path, with end-to-end
// metrics measured untraced and per-layer metrics from a separate traced
// pass. See README.md for the workloads, the metrics and how to compare
// two commits.
//
// Run it from the repository root through the wrapper, which builds it
// from this checkout into .bench_build/:
//
//	bash benchmark/run.sh -workload stream-sparse -seed 1 -seconds 15 -trace 0
//
// Flags:
//
//	-workload all|stream-sparse|stream-dense|serve-open|offline-fig9
//	-seed N      drives every trace, shift, snapshot and influence seed
//	-seconds S   time budget of the stream and offline measured loops
//	-trace 0|1   1 runs the traced pass and reports per-layer metrics
//	-out DIR     where the traced pass writes spans.json
//
// Each workload runs in a child process of its own, so its peak RSS is
// its own. Every output is checked (see README.md); a failed check exits
// non-zero without printing any metric. Otherwise the last line of
// standard output is one JSON object: correct, attempted, failed and the
// metrics of BENCHMARK.json.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"dita/internal/dataset"
	"dita/internal/fwio"
)

// childEnv carries a child process's job; its presence makes the
// process run that one workload and print its report.
const childEnv = "DITA_BENCH_CHILD"

// childJob is everything a workload child needs.
type childJob struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Scale    scale   `json:"scale"`
	// Artifact is the sealed framework the stream and serve workloads
	// load; ServeBin the dita-serve binary; Work a directory the child
	// may write scratch files in.
	Artifact string `json:"artifact,omitempty"`
	ServeBin string `json:"serve_bin,omitempty"`
	Work     string `json:"work"`
}

// report is what a child hands back.
type report struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	Spans     []span  `json:"spans,omitempty"`
	// Output is the SHA-256 of the workload's output CSV, and Framework
	// the checksum of the framework the offline workload trained.
	Output    string `json:"output"`
	Framework string `json:"framework,omitempty"`
}

//go:embed digests.json
var digestsJSON []byte

// digests are the expected outputs at full scale: the framework
// checksum at any seed, and each workload's output digest at seed 1.
type digests struct {
	Framework string            `json:"framework"`
	Seed1     map[string]string `json:"seed1"`
}

type options struct {
	workloads []string
	seed      uint64
	seconds   float64
	trace     bool
	out       string // spans.json directory
	root      string // repository checkout
	build     string // binaries and scratch directories
	scale     scale
}

func main() {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec))
	}
	var (
		workload = flag.String("workload", "all", "workload to run: all, "+fmt.Sprint(workloads))
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 15, "time budget of the stream and offline workloads' measured loops")
		traceOn  = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		out      = flag.String("out", filepath.Join(".bench_build", "out"), "directory for spans.json (traced pass)")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *traceOn, *out); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed uint64, seconds float64, traceOn int, out string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if traceOn != 0 && traceOn != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", traceOn)
	}
	names := workloads
	if workload != "all" {
		if !slices.Contains(workloads, workload) {
			return fmt.Errorf("unknown workload %q (want all or one of %v)", workload, workloads)
		}
		names = []string{workload}
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	build := filepath.Join(root, ".bench_build")
	return run(ctx, options{
		workloads: names, seed: seed, seconds: seconds, trace: traceOn == 1,
		out: out, root: root, build: build, scale: fullScale(),
	}, os.Stdout)
}

// findRoot locates the repository checkout the benchmark builds and runs:
// the working directory or its parent (when run from benchmark/).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		_, errMod := os.Stat(filepath.Join(dir, "go.mod"))
		_, errSrv := os.Stat(filepath.Join(dir, "cmd", "dita-serve", "main.go"))
		if errMod == nil && errSrv == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("no repository checkout here or one level up (want go.mod and cmd/dita-serve)")
}

// run prepares what the selected workloads share — the trained, sealed
// framework and the dita-serve binary — and runs each workload in a
// child process, printing its report.
func run(ctx context.Context, o options, w io.Writer) error {
	var want digests
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	if err := os.MkdirAll(o.build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(o.build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	var prep metrics
	var prepTrace *tracer
	if o.trace {
		prepTrace = &tracer{}
	}
	artifact := ""
	if slices.ContainsFunc(o.workloads, func(n string) bool { return n != wlOffline }) {
		if artifact, err = sealedFramework(o, work, want.Framework, prepTrace, &prep); err != nil {
			return err
		}
	}
	serveBin := ""
	if slices.Contains(o.workloads, wlServe) {
		if serveBin, err = buildServe(ctx, o.root, filepath.Join(o.build, "bin")); err != nil {
			return err
		}
	}

	var spans []workloadSpans
	if o.trace {
		spans = append(spans, workloadSpans{Workload: "prepare", Spans: prepTrace.recorded()})
	}
	for _, name := range o.workloads {
		dir, err := os.MkdirTemp(work, name+"-")
		if err != nil {
			return err
		}
		rep, err := runChild(ctx, childJob{
			Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Scale: o.scale,
			Artifact: artifact, ServeBin: serveBin, Work: dir,
		})
		if err != nil {
			return err
		}
		if name == wlOffline {
			if err := checkDigest(o, want.Framework, rep.Framework, "framework", true); err != nil {
				return err
			}
		} else {
			rep.Metrics = append(rep.Metrics, prep...)
		}
		if err := checkDigest(o, want.Seed1[name], rep.Output, name, o.seed == 1); err != nil {
			return err
		}
		if err := printReport(w, o, name, rep); err != nil {
			return err
		}
		if o.trace {
			spans = append(spans, workloadSpans{Workload: name, Spans: rep.Spans})
		}
	}
	if o.trace {
		return writeSpans(o.out, spans)
	}
	return nil
}

// sealedFramework returns the sealed framework the stream and serve
// workloads load. Its content depends only on the code and the scale,
// and training takes seconds, so an untraced run reuses the artifact an
// earlier run of the same executable sealed at the same scale. A traced
// run always trains, stage by stage, to time the stages. A fresh
// artifact is gated against the framework digest before it is kept.
func sealedFramework(o options, work, want string, tr *tracer, m *metrics) (string, error) {
	key, err := frameworkKey(o.scale)
	if err != nil {
		return "", err
	}
	cached := filepath.Join(o.build, "framework-"+key+".json")
	if _, err := os.Stat(cached); err == nil && tr == nil {
		return cached, nil
	}
	data, err := dataset.Generate(o.scale.Dataset)
	if err != nil {
		return "", err
	}
	fw, err := trainFramework(data, o.scale, tr, m)
	if err != nil {
		return "", err
	}
	path := filepath.Join(work, "framework.json")
	sum, err := fwio.Write(path, fw, frameworkSource(o.scale))
	if err != nil {
		return "", err
	}
	if err := checkDigest(o, want, sum, "framework", true); err != nil {
		return "", err
	}
	if tr != nil {
		return path, nil
	}
	stale, err := filepath.Glob(filepath.Join(o.build, "framework-*.json"))
	if err != nil {
		return "", err
	}
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			return "", err
		}
	}
	return cached, os.Rename(path, cached)
}

// frameworkKey names the framework a run trains: a digest of this
// executable, which fixes the code, and of the training inputs.
func frameworkKey(sc scale) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	inputs, err := json.Marshal([]any{sc.Dataset, sc.Train, sc.Cutoff})
	if err != nil {
		return "", err
	}
	h.Write(inputs)
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkDigest gates an output against its stored digest, at full scale
// and where the digest applies.
func checkDigest(o options, want, got, what string, applies bool) error {
	if !o.scale.CheckDigests || !applies {
		return nil
	}
	if got != want {
		return fmt.Errorf("%s output digest %s, expected %s", what, got, want)
	}
	return nil
}

// buildServe compiles cmd/dita-serve from the checkout into dir.
func buildServe(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "dita-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/dita-serve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building dita-serve: %w", err)
	}
	return bin, nil
}

// runChild runs one workload in a child process of this executable and
// returns its report.
func runChild(ctx context.Context, job childJob) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", job.Workload, err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("workload %s: report: %w", job.Workload, err)
	}
	return &rep, nil
}

// peakRSSMiB reads a process's peak resident set size (VmHWM) from
// /proc; pid "self" names the caller. rusage's maxrss would not do: a
// child's figure includes the high-water mark of the parent it was
// forked from, so every child of a process that trained the framework
// would report the training's peak.
func peakRSSMiB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("/proc/%s/status: unexpected VmHWM %q", pid, v)
			}
			kib, err := strconv.ParseInt(f[0], 10, 64)
			return float64(kib) / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%s/status has no VmHWM", pid)
}

// childMain runs the job in spec and prints its report as JSON.
func childMain(spec string) int {
	var job childJob
	if err := json.Unmarshal([]byte(spec), &job); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child: %v\n", err)
		return 2
	}
	rep, err := runWorkload(job)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", job.Workload, err)
		return 1
	}
	return 0
}

// runWorkload runs the job's workload. Its peak RSS is this process's,
// except for serve-open, whose workload is the servers it measures.
func runWorkload(job childJob) (*report, error) {
	var rep *report
	var err error
	switch job.Workload {
	case wlSparse:
		rep, err = runStream(job, job.Scale.Sparse)
	case wlDense:
		rep, err = runStream(job, job.Scale.Dense)
	case wlServe:
		return runServe(job)
	case wlOffline:
		rep, err = runOffline(job)
	default:
		return nil, fmt.Errorf("unknown workload %q", job.Workload)
	}
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB("self")
	rep.Metrics.add("peak_rss_mb", rss, "MiB")
	return rep, err
}

// result is the last output line of a workload.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]valuedUnit `json:"metrics"`
}

type valuedUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric of the workload by name with its unit,
// then the result line carrying the metrics BENCHMARK.json declares for
// this pass.
func printReport(w io.Writer, o options, name string, rep *report) error {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%t %s GOMAXPROCS=%d nproc=%d\n",
		name, o.seed, o.seconds, o.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "  %-42s %16.6f %s\n", m.Name, m.Value, m.Unit)
	}
	declared := endToEnd
	if o.trace {
		declared = perLayer
	}
	res := result{Correct: true, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]valuedUnit{}}
	for _, n := range declared {
		m, ok := rep.Metrics.lookup(n)
		if !ok {
			return fmt.Errorf("%s: metric %s not measured", name, n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", name, n, m.Value)
		}
		res.Metrics[n] = valuedUnit{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
