// Package trace builds deterministic arrival traces from a generated
// dataset: workers joining from their home locations and tasks spawning
// at venues, spread over an evaluation window. The same Params on the
// same dataset always produce the same trace, element for element —
// which is what lets two independent processes agree on a workload
// without shipping it: dita-sim -stream replays a trace through the
// in-process engine, dita-sim -stream -serve posts the identical trace
// to a running dita-serve, and the serve smoke diffs the two assignment
// CSVs byte for byte.
package trace

import (
	"fmt"
	"math"
	"slices"

	"dita/internal/dataset"
	"dita/internal/engine"
	"dita/internal/model"
	"dita/internal/randx"
)

// Params describes one arrival trace. All times are hours since the
// dataset epoch.
type Params struct {
	// Arrivals is the number of workers and the number of tasks (one of
	// each per index).
	Arrivals int
	// Seed drives every sampling decision of the trace.
	Seed uint64
	// Start is the beginning of the arrival window.
	Start float64
	// Spread is the window length: arrival times are uniform in
	// [Start, Start+Spread).
	Spread float64
	// RadiusKm is every worker's reachable radius.
	RadiusKm float64
	// ValidMin/ValidSpan bound task validity: ϕ uniform in
	// [ValidMin, ValidMin+ValidSpan).
	ValidMin, ValidSpan float64
}

// Build samples the trace from the dataset: worker i is a uniformly
// drawn user joining from its home, task i spawns at a uniformly drawn
// venue, and both streams come back stably sorted by time (equal
// timestamps keep draw order), ready for grid replay.
func Build(data *dataset.Data, p Params) ([]engine.WorkerArrival, []engine.TaskArrival, error) {
	if p.Arrivals <= 0 {
		return nil, nil, fmt.Errorf("trace: non-positive arrival count %d", p.Arrivals)
	}
	// A NaN arrival time is never due on a grid, so a trace with one
	// would replay as nothing rather than fail.
	if math.IsNaN(p.Start) || math.IsInf(p.Start, 0) {
		return nil, nil, fmt.Errorf("trace: non-finite start %v", p.Start)
	}
	if !(p.Spread >= 0) || math.IsInf(p.Spread, 0) {
		return nil, nil, fmt.Errorf("trace: spread %v is not finite and >= 0", p.Spread)
	}
	if len(data.Homes) == 0 || len(data.Venues) == 0 {
		return nil, nil, fmt.Errorf("trace: dataset has %d homes, %d venues", len(data.Homes), len(data.Venues))
	}
	rng := randx.New(p.Seed)
	ws := make([]engine.WorkerArrival, p.Arrivals)
	ts := make([]engine.TaskArrival, p.Arrivals)
	for i := range ws {
		u := model.WorkerID(rng.Intn(data.Params.NumUsers))
		ws[i] = engine.WorkerArrival{
			User: u, Loc: data.Homes[u], Radius: p.RadiusKm,
			At: p.Start + rng.Float64()*p.Spread,
		}
		v := data.Venues[rng.Intn(len(data.Venues))]
		ts[i] = engine.TaskArrival{
			Loc: v.Loc, Publish: p.Start + rng.Float64()*p.Spread,
			Valid:      p.ValidMin + rng.Float64()*p.ValidSpan,
			Categories: v.Categories, Venue: v.ID,
		}
	}
	slices.SortStableFunc(ws, func(a, b engine.WorkerArrival) int {
		switch {
		case a.At < b.At:
			return -1
		case a.At > b.At:
			return 1
		}
		return 0
	})
	slices.SortStableFunc(ts, func(a, b engine.TaskArrival) int {
		switch {
		case a.Publish < b.Publish:
			return -1
		case a.Publish > b.Publish:
			return 1
		}
		return 0
	})
	return ws, ts, nil
}
