package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/influence"
	"dita/internal/lda"
)

// TestMain lets the test binary stand in for the benchmark executable:
// the smoke test's workload children re-exec it with childEnv set.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// toyScale is fullScale shrunk until all four workloads run in seconds,
// keeping every sample large enough for the percentiles each reports.
func toyScale() scale {
	d := dataset.BrightkiteLike()
	d.NumUsers, d.NumVenues, d.Days, d.Seed = 200, 260, 8, 5
	return scale{
		Dataset: d,
		Train:   core.Config{LDA: lda.Config{Topics: 10, TrainIters: 30}, TopWillingnessLocations: 8, Parallelism: 2},
		Cutoff:  144,
		Sparse: streamSpec{
			Workers: 300, Tasks: 300, Start: 144, Spread: 6, Step: 0.05,
			RadiusKm: 8, ValidMin: 1, ValidSpan: 1, Mask: influence.All, Parallelism: 2, MinReps: 2,
		},
		Dense: streamSpec{
			Workers: 1500, Tasks: 100, Start: 144, Spread: 6, Step: 0.05,
			RadiusKm: 25, ValidMin: 1, ValidSpan: 1, Mask: influence.AP,
			ShiftMin: 1, ShiftSpan: 1, Parallelism: 2, MinReps: 2,
		},
		Serve: serveSpec{
			Arrivals: 200, Start: 144, Spread: 6, Step: 0.025, RadiusKm: 8, ValidMin: 1, ValidSpan: 1,
			ClosedPasses: 2, Rates: []float64{2000, 8000}, LatencyRate: 2000, Parallelism: 2,
		},
		Offline: offlineSpec{
			NumWorkers: 50, ValidHours: 5, RadiusKm: 25, Days: []int{6, 7},
			Tasks: []int{10, 20, 30, 40, 50}, MinJobs: 200, Parallelism: 2,
		},
	}
}

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func names(ms []declaredMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var wls []string
	for _, w := range b.Workloads {
		wls = append(wls, w.Name)
	}
	if !slices.Equal(wls, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", wls, workloads)
	}
	if got := names(b.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code reports %v", got, endToEnd)
	}
	if got := names(b.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code reports %v", got, perLayer)
	}
}

// TestSmokeAllWorkloads runs every workload at toy scale through the
// benchmark's own path — child processes, gates, report — untraced and
// traced, and checks each result line against BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in child processes")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	b := readBenchmarkJSON(t)
	build := t.TempDir()
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		o := options{
			workloads: workloads, seed: 3, trace: traced,
			out: filepath.Join(build, "out"), root: root, build: build, scale: toyScale(),
		}
		if err := run(context.Background(), o, &out); err != nil {
			t.Fatalf("trace=%t: %v\n%s", traced, err, out.String())
		}
		declared := b.EndToEnd
		if traced {
			declared = b.PerLayer
		}
		var results []result
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "{") {
				var r result
				if err := json.Unmarshal([]byte(line), &r); err != nil {
					t.Fatalf("trace=%t: result line %q: %v", traced, line, err)
				}
				results = append(results, r)
			}
		}
		if len(results) != len(workloads) {
			t.Fatalf("trace=%t: %d result lines for %d workloads\n%s", traced, len(results), len(workloads), out.String())
		}
		for i, r := range results {
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("trace=%t %s: correct=%t attempted=%d failed=%d", traced, workloads[i], r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(declared) {
				t.Errorf("trace=%t %s: %d metrics, BENCHMARK.json declares %d", traced, workloads[i], len(r.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("trace=%t %s: metric %s = %+v (present %t), want unit %s", traced, workloads[i], d.Name, m, ok, d.Unit)
				}
			}
		}
		if traced {
			data, err := os.ReadFile(filepath.Join(build, "out", "spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []workloadSpans
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatal(err)
			}
			if len(spans) != len(workloads)+1 {
				t.Errorf("spans.json holds %d span sets, want prepare + %d workloads", len(spans), len(workloads))
			}
			for _, s := range spans {
				if len(s.Spans) == 0 {
					t.Errorf("spans.json: no spans for %s", s.Workload)
				}
			}
		}
	}
}
