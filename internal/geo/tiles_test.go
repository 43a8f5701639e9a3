package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestTilingCoversBounds(t *testing.T) {
	b := Rect{Min: Point{-3, 2}, Max: Point{17, 9}}
	tl := NewTiling(b, 2.5, 1<<20)
	if tl.Tiles() != tl.NX*tl.NY {
		t.Fatalf("Tiles() = %d, want NX*NY = %d", tl.Tiles(), tl.NX*tl.NY)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := Point{
			X: b.Min.X + rng.Float64()*b.Width(),
			Y: b.Min.Y + rng.Float64()*b.Height(),
		}
		tile := tl.TileOf(p)
		if tile < 0 || tile >= tl.Tiles() {
			t.Fatalf("TileOf(%v) = %d out of [0, %d)", p, tile, tl.Tiles())
		}
		tx, ty := tl.Coords(tile)
		if ty*tl.NX+tx != tile {
			t.Fatalf("Coords(%d) = (%d, %d) does not round-trip", tile, tx, ty)
		}
		// The point must actually lie inside (or on the boundary of) the
		// tile's nominal square, modulo border clamping.
		lox := tl.Min.X + float64(tx)*tl.Size
		loy := tl.Min.Y + float64(ty)*tl.Size
		if tx > 0 && p.X < lox-1e-9 || ty > 0 && p.Y < loy-1e-9 {
			t.Fatalf("point %v assigned to tile (%d, %d) starting at (%v, %v)", p, tx, ty, lox, loy)
		}
		if tx < tl.NX-1 && p.X >= lox+tl.Size+1e-9 || ty < tl.NY-1 && p.Y >= loy+tl.Size+1e-9 {
			t.Fatalf("point %v beyond tile (%d, %d)", p, tx, ty)
		}
	}
}

// TestTilingNeighborhood is the geometric guarantee tiled feasibility
// relies on: any two points within one tile size of each other land in
// tiles at most one step apart on each axis, so a 3×3 halo around a
// worker's tile always contains every candidate task.
func TestTilingNeighborhood(t *testing.T) {
	b := Rect{Min: Point{0, 0}, Max: Point{100, 60}}
	tl := NewTiling(b, 7, 1<<20)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		p := Point{X: rng.Float64() * 100, Y: rng.Float64() * 60}
		// Offset by at most the tile size, including exactly the tile size
		// and points pushed onto tile boundaries.
		ang := rng.Float64() * 2 * math.Pi
		r := tl.Size * rng.Float64()
		if i%5 == 0 {
			r = tl.Size // exactly the limit
		}
		q := Point{X: p.X + r*math.Cos(ang), Y: p.Y + r*math.Sin(ang)}
		q.X = math.Min(math.Max(q.X, 0), 100)
		q.Y = math.Min(math.Max(q.Y, 0), 60)
		if Dist(p, q) > tl.Size {
			continue // clamping can only shrink the offset, but stay safe
		}
		px, py := tl.Coords(tl.TileOf(p))
		qx, qy := tl.Coords(tl.TileOf(q))
		if abs(px-qx) > 1 || abs(py-qy) > 1 {
			t.Fatalf("points %v and %v at distance %v ≤ size %v are %d,%d tiles apart",
				p, q, Dist(p, q), tl.Size, abs(px-qx), abs(py-qy))
		}
	}
}

func TestTilingClampGrowsSize(t *testing.T) {
	b := Rect{Min: Point{0, 0}, Max: Point{1000, 1000}}
	tl := NewTiling(b, 0.5, 64)
	if tl.Tiles() > 64 {
		t.Fatalf("tile count %d exceeds cap 64", tl.Tiles())
	}
	if tl.Size < 0.5 {
		t.Fatalf("clamp shrank the tile size to %v", tl.Size)
	}
	// Boundary points of the far corner stay addressable.
	if tile := tl.TileOf(Point{1000, 1000}); tile != tl.Tiles()-1 {
		t.Fatalf("far corner in tile %d, want %d", tile, tl.Tiles()-1)
	}
}

func TestTilingDegenerate(t *testing.T) {
	// Zero-size request (no feasible reach) and a single-point rectangle
	// both degenerate to one tile.
	one := NewTiling(Rect{Min: Point{3, 3}, Max: Point{3, 3}}, 0, 1024)
	if one.Tiles() < 1 {
		t.Fatalf("degenerate tiling has %d tiles", one.Tiles())
	}
	if tile := one.TileOf(Point{3, 3}); tile < 0 || tile >= one.Tiles() {
		t.Fatalf("TileOf on degenerate tiling = %d", tile)
	}
	nan := NewTiling(Rect{Min: Point{0, 0}, Max: Point{10, 10}}, math.NaN(), 1024)
	if nan.Tiles() < 1 || !(nan.Size > 0) {
		t.Fatalf("NaN size produced %d tiles of size %v", nan.Tiles(), nan.Size)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestTilingTinySizeHugeExtent: when the requested size is tiny next to
// the extent, the unclamped tile count exceeds the int range. The clamp
// must still bound it — positive dimensions, at most maxTiles tiles, a
// size no smaller than requested — and every point must map to a valid
// tile.
func TestTilingTinySizeHugeExtent(t *testing.T) {
	for _, tc := range []struct {
		b    Rect
		size float64
	}{
		{Rect{Min: Point{0, 0}, Max: Point{1000, 1000}}, 1e-9},
		{Rect{Min: Point{-1e19, -1e19}, Max: Point{1e19, 1e19}}, 25},
		{Rect{Min: Point{0, 0}, Max: Point{1e19, 1e19}}, 1e-9},
		{Rect{Min: Point{0, 0}, Max: Point{1e300, 1}}, 1e-300},
	} {
		const maxTiles = 256
		tl := NewTiling(tc.b, tc.size, maxTiles)
		if tl.NX < 1 || tl.NY < 1 || tl.Tiles() < 1 || tl.Tiles() > maxTiles {
			t.Fatalf("bounds %v size %v: %d×%d tiles, want 1..%d", tc.b, tc.size, tl.NX, tl.NY, maxTiles)
		}
		if tl.Size < tc.size {
			t.Fatalf("bounds %v: clamp shrank the tile size to %v", tc.b, tl.Size)
		}
		for _, p := range []Point{tc.b.Min, tc.b.Max, {X: tc.b.Min.X, Y: tc.b.Max.Y}} {
			if tile := tl.TileOf(p); tile < 0 || tile >= tl.Tiles() {
				t.Fatalf("bounds %v: TileOf(%v) = %d out of [0, %d)", tc.b, p, tile, tl.Tiles())
			}
		}
	}
}
