package mobility

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"dita/internal/geo"
	"dita/internal/parallel"
	"dita/internal/randx"
)

// randomModel draws a model of 1–31 locations around q: locations at
// scales from 1e-2 to 1e20 (near, far, and far enough that a steep
// shape leaves the kernel's y ≥ −700 domain), sometimes on q itself,
// with normalized, sometimes skewed stationary weights. Shapes cover
// the fitting range [0.05, 16] and, one case in ten, values outside it,
// most of them outside the kernel's domain (0, 16] too.
func randomModel(rng *randx.Rand, q geo.Point) *WorkerModel {
	n := 1 + rng.Intn(31)
	wm := &WorkerModel{Locs: make([]geo.Point, n), Stationary: make([]float64, n)}
	scale := math.Pow(10, rng.Float64()*22-2)
	skew := 1 + rng.Float64()*3
	mass := 0.0
	for i := range wm.Locs {
		if rng.Intn(20) == 0 {
			wm.Locs[i] = q
		} else {
			wm.Locs[i] = geo.Point{X: q.X + scale*(2*rng.Float64()-1), Y: q.Y + scale*(2*rng.Float64()-1)}
		}
		wm.Stationary[i] = math.Pow(rng.Float64(), skew)
		mass += wm.Stationary[i]
	}
	if mass > 0 {
		for i := range wm.Stationary {
			wm.Stationary[i] /= mass
		}
	}
	wm.Shape = 0.05 + rng.Float64()*15.95
	if rng.Intn(10) == 0 {
		wm.Shape = []float64{0, -1, 1e-9, 16.000001, 17, 64, math.Inf(1), math.NaN()}[rng.Intn(8)]
	}
	return wm
}

// TestWillingness32MatchesExact is the kernel's property gate: over
// random models and locations the filtered kernel returns exactly
// float32(Willingness), bit for bit, whether or not it fell back. Under
// -short (the GOARCH=386 leg, whose Exp and Log are the portable Go
// ones) it runs 200k cases instead of 4M.
func TestWillingness32MatchesExact(t *testing.T) {
	cases := 4_000_000
	if testing.Short() {
		cases = 200_000
	}
	const chunk = 10_000
	var fallbacks, mismatches atomic.Int64
	parallel.ForChunks(runtime.GOMAXPROCS(0), cases, chunk, func(_, c, lo, hi int) {
		rng := randx.New(uint64(c) + 1)
		for k := lo; k < hi; k++ {
			q := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			wm := randomModel(rng, q)
			got, fellBack := wm.Willingness32(q)
			want := float32(wm.Willingness(q))
			if fellBack {
				fallbacks.Add(1)
			}
			if math.Float32bits(got) != math.Float32bits(want) {
				if mismatches.Add(1) <= 5 {
					t.Errorf("case %d: Willingness32 %v (%#x, fell back %v), exact %v (%#x); model %+v at %v",
						k, got, math.Float32bits(got), fellBack, want, math.Float32bits(want), *wm, q)
				}
			}
		}
	})
	if n := mismatches.Load(); n > 0 {
		t.Fatalf("%d of %d cases differ from the exact kernel", n, cases)
	}
	t.Logf("%d cases, %d fallbacks", cases, fallbacks.Load())
}

// TestWillingness32FallbackOnBoundary puts the exact value on a float32
// rounding midpoint, and one float64 ulp to either side of it, where no
// error interval can decide the rounding: the fallback must fire and
// the value must still be exact. A value on a float32 itself must not
// fall back.
func TestWillingness32FallbackOnBoundary(t *testing.T) {
	q := geo.Point{X: 10, Y: 20}
	for _, tc := range []struct {
		d, shape float64
	}{{0, 1.3}, {0.5, 0.05}, {3, 1.31}, {40, 2}, {250, 0.7}, {1e4, 3}} {
		p := math.Pow(tc.d+1, -tc.shape)
		tried := 0
		for _, f := range []float32{0.75, 0.1, 3e-5, 1e-30} {
			if float64(f) > p {
				continue // the weight would exceed 1
			}
			tried++
			wm := &WorkerModel{Locs: []geo.Point{{X: q.X + tc.d, Y: q.Y}}, Stationary: []float64{0}, Shape: tc.shape}
			ulp := float64(math.Nextafter32(f, 1) - f)
			mid := float64(f) + ulp/2
			w := mid / p
			for _, weight := range []float64{w, math.Nextafter(w, 0), math.Nextafter(w, 1)} {
				wm.Stationary[0] = weight
				exact := wm.Willingness(q)
				if math.Abs(exact-mid) > 4*(math.Nextafter(mid, 1)-mid) {
					t.Fatalf("d %v shape %v: exact %v is not next to the midpoint %v", tc.d, tc.shape, exact, mid)
				}
				got, fellBack := wm.Willingness32(q)
				if !fellBack {
					t.Errorf("d %v shape %v weight %v: no fallback at exact value %v next to the float32 midpoint %v", tc.d, tc.shape, weight, exact, mid)
				}
				if got != float32(exact) {
					t.Errorf("d %v shape %v weight %v: Willingness32 %v, exact %v", tc.d, tc.shape, weight, got, float32(exact))
				}
			}
			wm.Stationary[0] = float64(f) / p
			if got, fellBack := wm.Willingness32(q); fellBack || got != float32(wm.Willingness(q)) {
				t.Errorf("d %v shape %v: value on float32 %v gave %v, fell back %v", tc.d, tc.shape, f, got, fellBack)
			}
		}
		if tried == 0 {
			t.Fatalf("d %v shape %v: no midpoint reachable with a weight in [0, 1]", tc.d, tc.shape)
		}
	}
}

// FuzzWillingness32 drives the filtered kernel over arbitrary finite
// coordinates, stationary weights and shapes of a model of two
// locations, at one query location: the result must equal the exact
// float32 bit for bit, or both must be NaN.
func FuzzWillingness32(f *testing.F) {
	f.Add(0.0, 0.0, 0.6, 3.0, 4.0, 0.4, 1.31, 1.0, 1.0)
	f.Add(5.0, 5.0, 0.5+0x1p-25, 5.0, 5.0, 0.0, 2.0, 5.0, 5.0) // float32 midpoint
	f.Add(-1e20, 3.0, 1.0, 1e-300, 0.0, 1e-310, 16.0, 0.0, 0.0)
	f.Add(1.0, 2.0, -0.25, 1.0, 2.5, 0.25, 0.05, 1.0, 2.0) // cancelling weights
	f.Add(1e154, -1e154, 1e300, 0.0, 0.0, 1e300, 0.5, 0.0, 0.0)
	f.Add(1e154, -1e154, 1.0, 1e154, -1e154, 0.0, 0.05, 0.0, 0.0) // dx²+dy² overflows, Hypot does not
	f.Fuzz(func(t *testing.T, x0, y0, s0, x1, y1, s1, shape, qx, qy float64) {
		for _, v := range []float64{x0, y0, s0, x1, y1, s1, shape, qx, qy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		wm := &WorkerModel{
			Locs:       []geo.Point{{X: x0, Y: y0}, {X: x1, Y: y1}},
			Stationary: []float64{s0, s1},
			Shape:      shape,
		}
		q := geo.Point{X: qx, Y: qy}
		got, fellBack := wm.Willingness32(q)
		want := float32(wm.Willingness(q))
		if got != got && want != want {
			return
		}
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("Willingness32 %v (%#x, fell back %v), exact %v (%#x)", got, math.Float32bits(got), fellBack, want, math.Float32bits(want))
		}
	})
}

// TestWillingness32FallbackRate sweeps every model of bkLikeEntries at
// every query location once: the filtered kernel must stay exact and
// fall back on at most one entry in a thousand (the measured rate is
// 0.0345%), so a bound grown loose or a term grown inaccurate shows up
// here and not only as lost speed.
func TestWillingness32FallbackRate(t *testing.T) {
	models, locs := bkLikeEntries(t)
	entries, fallbacks := 0, 0
	for _, q := range locs {
		for _, wm := range models {
			got, fellBack := wm.Willingness32(q)
			if want := float32(wm.Willingness(q)); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("Willingness32 %v, exact %v; model %+v at %v", got, want, *wm, q)
			}
			entries++
			if fellBack {
				fallbacks++
			}
		}
	}
	rate := float64(fallbacks) / float64(entries)
	if rate > 0.001 {
		t.Errorf("%d fallbacks in %d entries (%.4f%%), above 0.1%%", fallbacks, entries, 100*rate)
	}
	t.Logf("%d fallbacks in %d entries (%.4f%%)", fallbacks, entries, 100*rate)
}
