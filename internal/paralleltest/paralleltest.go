// Package paralleltest is the shared determinism test harness for every
// package that exposes a Parallelism knob. The repository-wide contract
// (see internal/parallel) promises bit-identical output at any worker
// count; this package turns that promise into a one-call assertion so
// each parallelized subsystem — RRR sampling, IC Monte Carlo, LDA Gibbs,
// mobility fitting, dataset generation, experiment sweeps — proves
// "parallel == sequential" the same way, and future parallelization PRs
// inherit the suite instead of reinventing it.
//
// Running the harness under `go test -race` doubles as the race check:
// every worker count above one exercises the pool with the detector
// armed.
package paralleltest

import (
	"fmt"
	"reflect"
	"testing"
)

// WorkerCounts are the Parallelism settings every invariance assertion
// exercises: the inline sequential path, the minimal concurrent pool,
// and a pool wider than the work of most test fixtures (which forces
// worker reuse and odd final chunks).
var WorkerCounts = []int{1, 2, 8}

// Invariant runs build at every WorkerCounts setting and fails t unless
// each result is deeply equal to the sequential (Parallelism = 1) one.
//
// build must return the complete observable output of the computation at
// the given worker count. Incidental fields that legitimately vary — CPU
// timings, the Parallelism knob itself if the result retains its config —
// must be normalized (zeroed) by build before returning; everything else
// is compared bit for bit via reflect.DeepEqual, unexported fields
// included.
//
//dita:testonly the shared harness the tests of every Parallelism-bearing package call
func Invariant(t testing.TB, build func(parallelism int) any) {
	t.Helper()
	want := build(WorkerCounts[0])
	for _, workers := range WorkerCounts[1:] {
		got := build(workers)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d diverged from sequential result\nsequential: %s\nparallel:   %s",
				workers, describe(want), describe(got))
		}
	}
}

// describe renders a result for the failure message, truncated so a
// multi-megabyte dataset diff does not drown the test log.
func describe(v any) string {
	s := fmt.Sprintf("%+v", v)
	const limit = 600
	if len(s) > limit {
		s = s[:limit] + fmt.Sprintf("... (%d bytes total)", len(s))
	}
	return s
}
