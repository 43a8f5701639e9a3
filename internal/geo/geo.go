// Package geo provides the planar geometry primitives used throughout the
// DITA framework: points, Euclidean distances in kilometres, bounding
// boxes, and a uniform grid index that answers radius queries over large
// point sets without external dependencies.
//
// The paper measures all travel costs with Euclidean distance over
// check-in coordinates and converts distance to travel time with a fixed
// worker speed (5 km/h by default); both conventions live here so every
// other package shares a single metric.
package geo

import (
	"fmt"
	"math"
)

// Point is a location on the plane. Coordinates are kilometres in an
// arbitrary city-scale frame; the dataset generator and all algorithms
// agree on this unit so distances come out in kilometres directly.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Dist returns the Euclidean distance between p and q in kilometres.
func Dist(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root for comparison-only call sites such as index pruning.
func Dist2(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Rect is an axis-aligned bounding box. Min is the lower-left corner and
// Max the upper-right corner; a Rect with Min == Max contains one point.
type Rect struct {
	Min, Max Point
}

// BoundOf returns the bounding box of the given points. The zero Rect is
// returned for an empty slice.
func BoundOf(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r = r.Extend(p)
	}
	return r
}

// Extend grows r to include p and returns the result.
func (r Rect) Extend(p Point) Rect {
	if p.X < r.Min.X {
		r.Min.X = p.X
	}
	if p.Y < r.Min.Y {
		r.Min.Y = p.Y
	}
	if p.X > r.Max.X {
		r.Max.X = p.X
	}
	if p.Y > r.Max.Y {
		r.Max.Y = p.Y
	}
	return r
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }
