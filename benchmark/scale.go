package main

import (
	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/influence"
)

// Workload names, in the order -workload all runs them.
const (
	wlSparse  = "stream-sparse"
	wlDense   = "stream-dense"
	wlServe   = "serve-open"
	wlOffline = "offline-fig9"
)

var workloads = []string{wlSparse, wlDense, wlServe, wlOffline}

// scale fixes every size of a benchmark run. The sizes are constants of
// the benchmark (fullScale); the tests run the same code at toyScale.
type scale struct {
	Dataset dataset.Params
	Train   core.Config
	// Cutoff is the training cutoff in hours: the framework is fitted on
	// the history before it, and every workload plays after it.
	Cutoff  float64
	Sparse  streamSpec
	Dense   streamSpec
	Serve   serveSpec
	Offline offlineSpec
	// CheckDigests gates the outputs against digests.json: the framework
	// checksum at any seed, the workload outputs at seed 1.
	CheckDigests bool
}

// streamSpec sizes one in-process streaming workload: arrival traces
// over a window, replayed on a fixed instant grid.
type streamSpec struct {
	Workers, Tasks      int     // arrivals over the window
	Start, Spread       float64 // window [Start, Start+Spread), hours
	Step                float64 // instant grid step, hours
	RadiusKm            float64
	ValidMin, ValidSpan float64 // task validity U[ValidMin, ValidMin+ValidSpan) hours
	Mask                influence.Components
	// ShiftMin/ShiftSpan draw each worker's shift U[ShiftMin,
	// ShiftMin+ShiftSpan) hours; an unassigned worker departs when it
	// ends. A zero span and minimum mean workers never depart.
	ShiftMin, ShiftSpan float64
	Parallelism         int
	// MinReps is the fewest replays a timed run makes, however short its
	// time budget.
	MinReps int
}

// serveSpec sizes the dita-serve workload: one trace replayed in
// admission order, closed loop and then open loop at each ladder rate.
type serveSpec struct {
	Arrivals            int // workers, and tasks
	Start, Spread, Step float64
	RadiusKm            float64
	ValidMin, ValidSpan float64
	// ClosedPasses is how many closed-loop passes a timed run makes; its
	// throughput is their median, its instant latencies their pool.
	ClosedPasses int
	Rates        []float64 // open-loop ladder, requests per second
	// LatencyRate is the rung whose ack latency and generator lag are
	// also reported without a rate suffix.
	LatencyRate float64
	Parallelism int
}

// offlineSpec sizes the Table-II figure workload: Fig. 9 (|S| sweep, all
// five algorithms) through experiments.Runner.
type offlineSpec struct {
	NumWorkers int
	ValidHours float64
	RadiusKm   float64
	Days       []int
	Tasks      []int // the |S| sweep
	// MinJobs is the fewest figure jobs a timed run pools for its
	// percentiles; figures repeat until it is reached.
	MinJobs     int
	Parallelism int
}

// fullScale is the benchmark as run: the Brightkite-like dataset trained
// at day 25, and workload sizes chosen so each layer the open work
// targets dominates one workload (see README.md).
func fullScale() scale {
	return scale{
		Dataset: dataset.BrightkiteLike(),
		Train:   core.Config{TopWillingnessLocations: 8, Parallelism: 2},
		Cutoff:  600,
		Sparse: streamSpec{
			Workers: 10000, Tasks: 10000, Start: 600, Spread: 24, Step: 0.05,
			RadiusKm: 8, ValidMin: 5, ValidSpan: 2, Mask: influence.All,
			Parallelism: 2, MinReps: 3,
		},
		Dense: streamSpec{
			Workers: 60000, Tasks: 4000, Start: 600, Spread: 24, Step: 0.05,
			RadiusKm: 25, ValidMin: 5, ValidSpan: 2, Mask: influence.AP,
			ShiftMin: 6, ShiftSpan: 4, Parallelism: 2, MinReps: 3,
		},
		Serve: serveSpec{
			Arrivals: 3000, Start: 600, Spread: 24, Step: 0.1,
			RadiusKm: 8, ValidMin: 5, ValidSpan: 2, ClosedPasses: 3,
			Rates: []float64{1000, 2000, 4000}, LatencyRate: 1000, Parallelism: 2,
		},
		Offline: offlineSpec{
			NumWorkers: 240, ValidHours: 5, RadiusKm: 25, Days: []int{25, 26, 27, 28, 29},
			Tasks: []int{20, 40, 60, 80, 100, 120, 140, 160, 180, 200}, MinJobs: 200, Parallelism: 2,
		},
		CheckDigests: true,
	}
}
