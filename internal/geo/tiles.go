package geo

import "math"

// Tiling partitions a bounding rectangle into square tiles of a fixed
// size. It is the spatial decomposition behind tiled assignment
// instants: every entity belongs to exactly one tile (the one its
// location falls in, with the usual half-open floor convention), and a
// tile's 3×3 neighbourhood covers every point within one tile size of
// any of its points. Callers that size tiles from a reachability bound
// therefore get a complete candidate set from the halo alone — no
// global scan, no per-pair tile negotiation.
//
// A Tiling stores no points; it is the one cell rule, shared by the
// Grid and by the tiled scan's per-instant Buckets of workers and
// tasks. The zero value is not usable; build one with NewTiling.
type Tiling struct {
	// Min is the lower-left corner of the covered rectangle.
	Min Point
	// Size is the tile edge length (kilometres, like all coordinates).
	Size float64
	// NX, NY are the tile-grid dimensions; tile (tx, ty) has index
	// ty*NX + tx.
	NX, NY int
}

// NewTiling covers bounds with square tiles of the requested size. The
// size is only ever grown, never shrunk: when the requested size would
// produce more than maxTiles tiles it is doubled until the grid fits,
// so a caller's "one tile ≥ one reachability radius" guarantee is
// preserved under the clamp. The tile count is bounded in float64
// before any conversion to int, so a reach that is tiny next to the
// extent cannot overflow it. A non-positive (or NaN) size degenerates
// to a single tile covering the whole rectangle.
func NewTiling(bounds Rect, size float64, maxTiles int) Tiling {
	w, h := bounds.Width(), bounds.Height()
	if w <= 0 {
		w = 1e-9
	}
	if h <= 0 {
		h = 1e-9
	}
	if maxTiles < 1 {
		maxTiles = 1
	}
	if !(size > 0) { // catches non-positive and NaN
		size = math.Max(w, h)
	}
	nx, ny := tilesAcross(w, size), tilesAcross(h, size)
	for nx*ny > float64(maxTiles) {
		size *= 2
		nx, ny = tilesAcross(w, size), tilesAcross(h, size)
	}
	return Tiling{Min: bounds.Min, Size: size, NX: int(nx), NY: int(ny)}
}

// tilesAcross returns how many size-wide tiles cover an extent, with at
// least one tile so degenerate rectangles stay addressable. The count
// stays a float64 so callers can bound it before converting; a NaN
// count (an infinite extent over an infinite size) is one tile.
func tilesAcross(extent, size float64) float64 {
	n := math.Floor(extent/size) + 1
	if !(n >= 1) {
		n = 1
	}
	return n
}

// Tiles returns the total tile count NX*NY.
func (t Tiling) Tiles() int { return t.NX * t.NY }

// TileOf returns the index of the tile containing p. Points on a tile
// boundary belong to the higher tile (floor convention); points outside
// the covered rectangle clamp to the border tiles, so the result is
// always a valid index.
func (t Tiling) TileOf(p Point) int {
	tx, ty := t.TileCoords(p)
	return ty*t.NX + tx
}

// TileCoords returns the (tx, ty) grid coordinates of the tile
// containing p, under TileOf's rule.
func (t Tiling) TileCoords(p Point) (tx, ty int) {
	return clampTile((p.X-t.Min.X)/t.Size, t.NX), clampTile((p.Y-t.Min.Y)/t.Size, t.NY)
}

// clampTile floors a tile coordinate into [0, n). It clamps before the
// int conversion, which would overflow for a point far outside the
// covered rectangle; NaN maps to tile 0.
func clampTile(v float64, n int) int {
	if !(v > 0) {
		return 0
	}
	if v >= float64(n-1) {
		return n - 1
	}
	return int(v) // truncation is the floor of a positive value
}

// Coords returns the (tx, ty) grid coordinates of a tile index.
func (t Tiling) Coords(tile int) (tx, ty int) {
	return tile % t.NX, tile / t.NX
}
