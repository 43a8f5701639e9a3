// Package consumer calls the library from outside internal/. Its own
// exports are not checked: only internal/ packages are.
package consumer

import "testonly/internal/lib"

// Run uses the library the way a command would.
func Run() int {
	sq := &lib.Square{Side: 2}
	scale := sq.Scale
	scale(2)
	xs := lib.Map([]int{1, 2}, func(x int) int { return x * 2 })
	return lib.Used() + lib.Stale() + xs[0]
}

// Unused is exported and uncalled, outside internal/: not flagged.
func Unused() {}
