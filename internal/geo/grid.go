package geo

import (
	"math"
	"sort"
)

// Grid is a radius-query index over a fixed set of points ("which points
// lie within d of q?"): the dataset generator asks it for the venues
// near a user's next stop. It is a Tiling shaped to the points plus one
// Buckets grouping of the point indices by tile.
//
// The index is immutable after construction; BuildGrid copies nothing
// but the point slice header, so callers must not mutate the backing
// array.
type Grid struct {
	pts   []Point
	tl    Tiling
	cells Buckets
}

// pointsPerCell is the Grid's target occupancy: cells hold about this
// many points, shaped to the aspect ratio of the bounding box.
const pointsPerCell = 8

// BuildGrid indexes pts with about pointsPerCell points per cell.
// BuildGrid handles degenerate inputs (empty set, all points identical)
// gracefully.
func BuildGrid(pts []Point) *Grid {
	g := &Grid{pts: pts}
	if len(pts) == 0 {
		return g
	}
	bounds := BoundOf(pts)
	w, h := math.Max(bounds.Width(), 1e-9), math.Max(bounds.Height(), 1e-9)
	cells := math.Max(1, float64(len(pts))/pointsPerCell)
	ny := math.Max(1, math.Floor(math.Sqrt(cells/(w/h))))
	nx := math.Max(1, math.Ceil(cells/ny))
	// Cells of this size number at most (nx+1)·(ny+1), so the tile count
	// needs no clamp.
	g.tl = NewTiling(bounds, math.Max(w/nx, h/ny), math.MaxInt)
	keys := make([]int32, len(pts))
	for i, p := range pts {
		keys[i] = int32(g.tl.TileOf(p))
	}
	g.cells = NewBuckets(keys, g.tl.Tiles())
	return g
}

// Within appends to dst the indices of all points p with Dist(p, q) <= d
// and returns the extended slice. Results are sorted ascending so output
// is deterministic regardless of grid shape.
func (g *Grid) Within(q Point, d float64, dst []int) []int {
	if len(g.pts) == 0 || d < 0 {
		return dst
	}
	d2 := d * d
	x0, y0 := g.tl.TileCoords(Point{q.X - d, q.Y - d})
	x1, y1 := g.tl.TileCoords(Point{q.X + d, q.Y + d})
	before := len(dst)
	for ty := y0; ty <= y1; ty++ {
		for tx := x0; tx <= x1; tx++ {
			for _, i := range g.cells.Group(ty*g.tl.NX + tx) {
				if Dist2(g.pts[i], q) <= d2 {
					dst = append(dst, int(i))
				}
			}
		}
	}
	sort.Ints(dst[before:])
	return dst
}

// Buckets is a CSR grouping of the indices [0, len(keys)) by an int32
// key in [0, n): group k is Items[Start[k]:Start[k+1]], with indices
// ascending inside each group. It is the one counting sort behind the
// Grid's cells, the tiled scan's worker and task pools and the
// matching's component split.
type Buckets struct {
	Start []int32 // n+1 offsets into Items
	Items []int32 // the indices, grouped by key
}

// NewBuckets groups the indices of keys by key; every key must lie in
// [0, n). Callers compute the keys in their own loop.
func NewBuckets(keys []int32, n int) Buckets {
	start := make([]int32, n+1)
	for _, k := range keys {
		start[k+1]++
	}
	for k := 0; k < n; k++ {
		start[k+1] += start[k]
	}
	// Place each index at its group's cursor, kept in start[k] itself:
	// afterwards start[k] is group k's end, so shifting by one restores
	// the offsets without a cursor copy.
	items := make([]int32, len(keys))
	for i, k := range keys {
		items[start[k]] = int32(i)
		start[k]++
	}
	copy(start[1:], start[:n])
	start[0] = 0
	return Buckets{Start: start, Items: items}
}

// Group returns the indices with key k, ascending.
func (b Buckets) Group(k int) []int32 { return b.Items[b.Start[k]:b.Start[k+1]] }

// Len returns the size of group k.
func (b Buckets) Len(k int) int { return int(b.Start[k+1] - b.Start[k]) }
