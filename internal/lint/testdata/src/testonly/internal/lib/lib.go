// Package lib fixtures: exported functions and methods of an internal
// package, and which of them have a caller outside tests.
package lib

import "fmt"

// Used is called by the consumer package: not flagged.
func Used() int { return helper() }

// UsedInPackage is called by this package's own non-test code.
func UsedInPackage() int { return 1 }

func helper() int { return UsedInPackage() }

// Map is generic; the consumer's instantiation counts as a reference.
func Map[T any](xs []T, f func(T) T) []T {
	for i := range xs {
		xs[i] = f(xs[i])
	}
	return xs
}

func Unused() {} // want "exported Unused has no caller outside tests"

// TestOnlyHelper has callers, but only in lib_test.go.
func TestOnlyHelper() int { return 2 } // want "exported TestOnlyHelper has no caller outside tests"

// Recursive calls only itself.
func Recursive(n int) int { // want "exported Recursive has no caller outside tests"
	if n <= 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Reference is a helper the tests of other packages need.
//
//dita:testonly the reference other packages' tests compare against
func Reference() int { return 3 }

// Bare carries the directive without saying why.
//
//dita:testonly
func Bare() {} // want "//dita:testonly on Bare needs a reason"

// Stale carries the directive although the consumer calls it.
//
//dita:testonly kept for tests
func Stale() int { return 4 } // want "stale //dita:testonly directive: non-test code references Stale"

// Celsius is a temperature.
type Celsius float64

// String satisfies fmt.Stringer: exempt, though nothing calls it.
func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

// Shape is satisfied by *Square through a pointer receiver.
type Shape interface{ Area() float64 }

// Square is a shape.
type Square struct{ Side float64 }

// Area satisfies Shape: exempt.
func (s *Square) Area() float64 { return s.Side * s.Side }

// Scale is called by the consumer as a method value.
func (s *Square) Scale(f float64) { s.Side *= f }

func (s *Square) Perimeter() float64 { return 4 * s.Side } // want "exported Square.Perimeter has no caller outside tests"
