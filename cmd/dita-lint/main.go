// Command dita-lint runs the repository's determinism/durability
// static-analysis suite (internal/lint) over the named packages and
// fails on any violation. CI runs it as a hard gate; locally:
//
//	go run ./cmd/dita-lint ./...
//
// Each diagnostic names the violated invariant:
//
//	maporder     order-sensitive work inside range-over-map
//	wallclock    time.Now/Since or global math/rand in deterministic
//	             code (timing sites opt out via //dita:wallclock)
//	atomicwrite  in-place file writes outside internal/atomicio
//	poolpurity   writes to captured state in pool chunk closures
//	floatreduce  scheduling-dependent float reductions
//	testonly     exported functions and methods under internal/ that
//	             only tests call (helpers other packages' tests need
//	             opt out via //dita:testonly <reason>)
//
// testonly is whole-program: whatever packages are named, every
// non-test package of the repository, the benchmark module included,
// counts as a caller.
package main

import (
	"flag"
	"fmt"
	"go/build"
	"log"
	"os"
	"strings"

	"dita/internal/lint"
)

func main() {
	log.SetFlags(0)
	// The loader type-checks the standard library from source. Read the
	// pure-Go variants of cgo packages such as net, so the lint needs no
	// C toolchain for the target (a GOARCH=386 run on amd64 has none).
	build.Default.CgoEnabled = false
	only := flag.String("only", "", "comma-separated analyzer subset to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dita-lint [-only analyzers] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				log.Fatalf("dita-lint: unknown analyzer %q", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := lint.Load(".", patterns)
	if err != nil {
		log.Fatalf("dita-lint: %v", err)
	}

	diags := lint.Run(prog, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
