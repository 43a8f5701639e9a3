package geo

import (
	"math"
	"testing"
	"testing/quick"

	"dita/internal/randx"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDistKnownValues(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"zero", Point{0, 0}, Point{0, 0}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
		{"symmetric offsets", Point{10, 10}, Point{13, 14}, 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Dist(tc.p, tc.q); !almostEqual(got, tc.want, 1e-12) {
				t.Errorf("Dist(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want)
			}
		})
	}
}

func TestDistMetricAxioms(t *testing.T) {
	// Property: Dist is a metric — non-negative, symmetric, zero iff
	// equal (up to fp), and satisfies the triangle inequality.
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		dab, dba := Dist(a, b), Dist(b, a)
		if dab < 0 || dab != dba {
			return false
		}
		// Triangle inequality with an fp tolerance.
		return Dist(a, c) <= dab+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clamp keeps quick-generated values in a sane numeric range so the
// property is not defeated by inf/NaN-scale inputs.
func clamp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestDist2ConsistentWithDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		d := Dist(a, b)
		return almostEqual(Dist2(a, b), d*d, 1e-6*(1+d*d))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Min: Point{1, 1}, Max: Point{5, 7}}
	if r.Width() != 4 || r.Height() != 6 {
		t.Errorf("Width/Height = %v/%v, want 4/6", r.Width(), r.Height())
	}
	if got := r.Extend(Point{3, 4}); got != r {
		t.Errorf("Extend by an inner point = %+v, want %+v", got, r)
	}
	if got := r.Extend(Point{0, 9}); got != (Rect{Min: Point{0, 1}, Max: Point{5, 9}}) {
		t.Errorf("Extend by an outer point = %+v", got)
	}
}

func TestRectExtendAndBoundOf(t *testing.T) {
	pts := []Point{{3, 3}, {-1, 5}, {2, -2}, {7, 0}}
	r := BoundOf(pts)
	if r.Min != (Point{-1, -2}) || r.Max != (Point{7, 5}) {
		t.Fatalf("BoundOf = %+v", r)
	}
	for _, p := range pts {
		if p.X < r.Min.X || p.X > r.Max.X || p.Y < r.Min.Y || p.Y > r.Max.Y {
			t.Errorf("bound does not contain %v", p)
		}
	}
	if got := BoundOf(nil); got != (Rect{}) {
		t.Errorf("BoundOf(nil) = %+v, want zero Rect", got)
	}
}

func randomPoints(n int, extent float64, seed uint64) []Point {
	rng := randx.New(seed)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{rng.Float64() * extent, rng.Float64() * extent}
	}
	return pts
}

func bruteWithin(pts []Point, q Point, d float64) []int {
	var out []int
	for i, p := range pts {
		if Dist(p, q) <= d {
			out = append(out, i)
		}
	}
	return out
}

func TestGridWithinMatchesBruteForce(t *testing.T) {
	for _, n := range []int{0, 1, 17, 400, 2000} {
		pts := randomPoints(n, 100, uint64(n)+7)
		g := BuildGrid(pts)
		rng := randx.New(99)
		for trial := 0; trial < 25; trial++ {
			q := Point{rng.Float64()*120 - 10, rng.Float64()*120 - 10}
			d := rng.Float64() * 30
			got := g.Within(q, d, nil)
			want := bruteWithin(pts, q, d)
			if len(got) != len(want) {
				t.Fatalf("n=%d q=%v d=%.2f: got %d results, want %d", n, q, d, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d q=%v d=%.2f: result %d = %d, want %d", n, q, d, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGridWithinEdgeCases(t *testing.T) {
	pts := []Point{{1, 1}, {1, 1}, {2, 2}}
	g := BuildGrid(pts)
	// Duplicate points both report.
	got := g.Within(Point{1, 1}, 0, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("duplicate-point query = %v, want [0 1]", got)
	}
	// Negative radius returns nothing.
	if got := g.Within(Point{1, 1}, -1, nil); len(got) != 0 {
		t.Errorf("negative radius = %v, want empty", got)
	}
	// Appends to dst.
	dst := []int{42}
	got = g.Within(Point{2, 2}, 0.1, dst)
	if len(got) != 2 || got[0] != 42 || got[1] != 2 {
		t.Errorf("append semantics broken: %v", got)
	}
}

func TestGridAllIdenticalPoints(t *testing.T) {
	pts := make([]Point, 50)
	for i := range pts {
		pts[i] = Point{3, 3}
	}
	g := BuildGrid(pts)
	if got := g.Within(Point{3, 3}, 0.5, nil); len(got) != 50 {
		t.Errorf("identical points: got %d, want 50", len(got))
	}
}

func TestGridPropertyWithinRadiusContainment(t *testing.T) {
	// Property: every reported index is actually within distance d, and
	// growing d never shrinks the result set.
	pts := randomPoints(300, 50, 11)
	g := BuildGrid(pts)
	f := func(qx, qy, d1, d2 float64) bool {
		q := Point{math.Mod(math.Abs(qx), 60), math.Mod(math.Abs(qy), 60)}
		r1 := math.Mod(math.Abs(d1), 25)
		r2 := r1 + math.Mod(math.Abs(d2), 25)
		got1 := g.Within(q, r1, nil)
		got2 := g.Within(q, r2, nil)
		for _, i := range got1 {
			if Dist(pts[i], q) > r1+1e-9 {
				return false
			}
		}
		return len(got2) >= len(got1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBucketsGroupsByKey checks the CSR grouping against a direct
// filter: every group holds exactly the indices with its key, ascending,
// including empty groups and an empty key list.
func TestBucketsGroupsByKey(t *testing.T) {
	rng := randx.New(5)
	for _, tc := range []struct{ keys, n int }{{0, 0}, {0, 3}, {1, 1}, {50, 7}, {1000, 64}} {
		keys := make([]int32, tc.keys)
		for i := range keys {
			keys[i] = int32(rng.Intn(tc.n))
		}
		b := NewBuckets(keys, tc.n)
		if len(b.Start) != tc.n+1 || len(b.Items) != len(keys) || b.Start[0] != 0 {
			t.Fatalf("keys=%d n=%d: Start len %d, Items len %d", tc.keys, tc.n, len(b.Start), len(b.Items))
		}
		for k := 0; k < tc.n; k++ {
			var want []int32
			for i, key := range keys {
				if int(key) == k {
					want = append(want, int32(i))
				}
			}
			got := b.Group(k)
			if b.Len(k) != len(got) || len(got) != len(want) {
				t.Fatalf("keys=%d n=%d group %d: %v, want %v", tc.keys, tc.n, k, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("keys=%d n=%d group %d: %v, want %v", tc.keys, tc.n, k, got, want)
				}
			}
		}
	}
}

// TestGridWithinHugeRadius: a radius far beyond the points' extent must
// report every point. The tile coordinates of q ± d overflow an int
// unless they are clamped before conversion.
func TestGridWithinHugeRadius(t *testing.T) {
	pts := randomPoints(400, 100, 3)
	g := BuildGrid(pts)
	for _, d := range []float64{1e17, 1e300} {
		if got := g.Within(Point{50, 50}, d, nil); len(got) != len(pts) {
			t.Errorf("radius %g: %d points, want all %d", d, len(got), len(pts))
		}
	}
	tl := NewTiling(Rect{Max: Point{100, 100}}, 1, 1<<20)
	if got := tl.TileOf(Point{1e300, 1e300}); got != tl.Tiles()-1 {
		t.Errorf("TileOf a far point = %d, want the far corner %d", got, tl.Tiles()-1)
	}
}
