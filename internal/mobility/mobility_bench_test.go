package mobility

import (
	"fmt"
	"testing"

	"dita/internal/dataset"
	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/randx"
)

func benchHistories(nWorkers, visits int, seed uint64) map[model.WorkerID]model.History {
	rng := randx.New(seed)
	out := make(map[model.WorkerID]model.History, nWorkers)
	for u := 0; u < nWorkers; u++ {
		var h model.History
		pos := geo.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300}
		for i := 0; i < visits; i++ {
			jump := rng.Pareto(1, 1.5)
			pos = geo.Point{X: pos.X + jump, Y: pos.Y + jump/2}
			h = append(h, model.CheckIn{
				User: model.WorkerID(u), Venue: model.VenueID(rng.Intn(visits / 2)),
				Loc: pos, Arrive: float64(i), Complete: float64(i) + 0.5,
			})
		}
		out[model.WorkerID(u)] = h
	}
	return out
}

// BenchmarkFit measures Historical Acceptance fitting (RWR + Pareto MLE)
// for a paper-scale worker population.
func BenchmarkFit(b *testing.B) {
	hists := benchHistories(2400, 30, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(hists, Config{})
	}
}

// BenchmarkWillingness measures one Pwil(w, s) evaluation — the inner
// loop of the |W_G|×|S| willingness matrix.
func BenchmarkWillingness(b *testing.B) {
	hists := benchHistories(100, 30, 1)
	m := Fit(hists, Config{})
	loc := geo.Point{X: 150, Y: 150}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Worker(model.WorkerID(i % 100)).Willingness(loc)
	}
}

// wilSink keeps the benchmarked kernels' results live.
var wilSink float32

// BenchmarkWillingness32 measures one willingness entry with the exact
// kernel (float32(Willingness)) and with the filtered kernel
// (Willingness32) on the same real models: HA models fitted to the test
// dataset's first five days and truncated to their top 8 locations, as
// TopWillingnessLocations: 8 does, queried at the check-in locations of
// its last day. The dataset is the BK-like test dataset (150 users, 180
// venues) over all of its days rather than six, trained on all but the
// last: six days leave most models a single location, where the
// per-call overhead hides the per-term cost. It reports the filtered
// kernel's fallbacks per entry and the mean locations per model.
func BenchmarkWillingness32(b *testing.B) {
	p := dataset.BrightkiteLike()
	p.NumUsers, p.NumVenues, p.Seed = 150, 180, 23
	data, err := dataset.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	cutoff := float64(p.Days-1) * 24
	m := Fit(data.HistoriesBefore(cutoff), Config{})
	var models []*WorkerModel
	for u := 0; u < p.NumUsers; u++ {
		if wm := m.Worker(model.WorkerID(u)); wm != nil {
			models = append(models, wm.Top(8))
		}
	}
	var locs []geo.Point
	for _, c := range data.CheckIns[len(data.CheckInsBefore(cutoff)):] {
		locs = append(locs, c.Loc)
	}
	nLocs := 0
	for _, wm := range models {
		nLocs += len(wm.Locs)
	}
	// run calls kernel on b.N entries, sweeping every model at one
	// location before moving to the next, and returns how many of the
	// calls reported a fallback.
	run := func(b *testing.B, kernel func(*WorkerModel, geo.Point) (float32, bool)) int {
		b.ReportMetric(float64(nLocs)/float64(len(models)), "locs/model")
		var sum float32
		fallbacks, mi, li := 0, 0, 0
		for i := 0; i < b.N; i++ {
			v, fellBack := kernel(models[mi], locs[li])
			sum += v
			if fellBack {
				fallbacks++
			}
			if mi++; mi == len(models) {
				mi = 0
				if li++; li == len(locs) {
					li = 0
				}
			}
		}
		wilSink = sum
		return fallbacks
	}
	b.Run("kernel=exact", func(b *testing.B) {
		run(b, func(wm *WorkerModel, loc geo.Point) (float32, bool) { return float32(wm.Willingness(loc)), false })
	})
	b.Run("kernel=filtered", func(b *testing.B) {
		n := run(b, (*WorkerModel).Willingness32)
		b.ReportMetric(float64(n)/float64(b.N), "fallbacks/entry")
	})
}

// BenchmarkFitParallel measures per-worker HA fitting at several pool
// widths over the same histories.
func BenchmarkFitParallel(b *testing.B) {
	hists := benchHistories(2400, 30, 1)
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Fit(hists, Config{Parallelism: par})
			}
		})
	}
}
