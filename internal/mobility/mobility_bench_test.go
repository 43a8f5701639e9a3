package mobility

import (
	"fmt"
	"testing"

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
