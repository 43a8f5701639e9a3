// Benchmarks regenerating every figure of the paper's evaluation
// (Section V). BenchmarkFigures has one sub-benchmark per figure and
// dataset: Fig. 5–8 are the influence-modeling ablations (IA vs
// IA-WP/IA-AP/IA-AW) on both datasets, Fig. 9–16 the algorithm
// comparisons (MTA, IA, EIA, DIA, MI) under the four parameter sweeps,
// odd figures on the BK-like dataset and even ones on the FS-like one.
//
// Benchmarks run at "bench scale" (a ~4× reduced world) so the whole
// suite finishes in minutes; run `go run ./cmd/dita-bench` for the
// full Table II scale. Use -v to see each figure's series: every
// benchmark logs the same rows the corresponding figure plots, and
// reports the headline metric via b.ReportMetric.
package dita_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/experiments"
)

// benchSweeps are the bench-scale sweeps: the same five-point structure
// as the paper, with reduced instance sizes.
var benchSweeps = experiments.Sweeps{
	Tasks:   []int{100, 200, 300, 400, 500},
	Workers: []int{80, 160, 240, 320, 400},
	Valid:   experiments.ValidTimeSweep,
	Radius:  experiments.RadiusSweep,
}

func benchParams() experiments.Params {
	return experiments.Params{
		NumTasks:   300,
		NumWorkers: 240,
		ValidHours: 5,
		RadiusKm:   25,
		Days:       []int{10, 11},
		Seed:       42,
	}
}

func benchDataset(name string) dataset.Params {
	var p dataset.Params
	if name == "BK" {
		p = dataset.BrightkiteLike()
		p.NumUsers = 600
		p.NumVenues = 800
	} else {
		p = dataset.FoursquareLike()
		p.NumUsers = 600
		p.NumVenues = 800
	}
	p.Days = 12
	return p
}

var (
	runnersOnce sync.Once
	runners     map[string]*experiments.Runner
	runnersErr  error
)

// getRunner trains one framework per dataset, shared across all
// benchmarks in the binary (training time is excluded from every
// measurement).
func getRunner(b *testing.B, name string) *experiments.Runner {
	b.Helper()
	runnersOnce.Do(func() {
		runners = map[string]*experiments.Runner{}
		for _, n := range []string{"BK", "FS"} {
			data, err := dataset.Generate(benchDataset(n))
			if err != nil {
				runnersErr = err
				return
			}
			r, err := experiments.NewRunner(data, core.Config{TopWillingnessLocations: 8}, benchParams())
			if err != nil {
				runnersErr = err
				return
			}
			runners[n] = r
		}
	})
	if runnersErr != nil {
		b.Fatal(runnersErr)
	}
	return runners[name]
}

// logResult writes the figure's series into the benchmark log (visible
// with -v) — the same rows the paper's figure plots.
func logResult(b *testing.B, res *experiments.Result, metrics []experiments.Metric) {
	b.Helper()
	var buf bytes.Buffer
	res.FormatAll(&buf, metrics)
	b.Log("\n" + buf.String())
}

// reportAI attaches the headline AI and assignment count (first
// algorithm at the largest sweep point) as custom benchmark metrics.
func reportAI(b *testing.B, res *experiments.Result) {
	xs, algs := res.Xs(), res.Algorithms()
	if len(xs) == 0 || len(algs) == 0 {
		return
	}
	for _, row := range res.Rows {
		if row.X == xs[len(xs)-1] && row.Alg == algs[0] {
			b.ReportMetric(row.AI, "AI")
			b.ReportMetric(row.Assigned, "assigned")
			return
		}
	}
}

// BenchmarkFigures regenerates each figure on each dataset it is
// evaluated on, as sub-benchmarks named Fig05/BK … Fig16/FS.
func BenchmarkFigures(b *testing.B) {
	for fig := 5; fig <= 16; fig++ {
		for _, ds := range []string{"BK", "FS"} {
			if !experiments.FigureOnDataset(fig, ds) {
				continue
			}
			b.Run(fmt.Sprintf("Fig%02d/%s", fig, ds), func(b *testing.B) {
				r := getRunner(b, ds)
				b.ResetTimer()
				var res *experiments.Result
				var err error
				for i := 0; i < b.N; i++ {
					if res, err = r.RunFigure(fig, benchSweeps); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				logResult(b, res, experiments.FigureMetrics(fig))
				reportAI(b, res)
			})
		}
	}
}

// BenchmarkSweepParallelism compares one full comparison sweep (Fig. 9)
// run sequentially against the default all-cores fan-out; the rows are
// identical, only wall clock differs.
func BenchmarkSweepParallelism(b *testing.B) {
	for _, bc := range []struct {
		name string
		par  int
	}{{"p=1", 1}, {"p=auto", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			r := *getRunner(b, "BK")
			r.P.Parallelism = bc.par
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.RunFigure(9, benchSweeps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
