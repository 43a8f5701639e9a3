// Command dita-serve is the production front-end of the streaming
// engine: a long-lived HTTP/JSON service that loads a sealed framework
// artifact (fwio), holds one assignment engine per region, ingests
// worker/task arrivals and departures on endpoints, fires assignment
// instants on its configured trigger, and exposes per-region metrics.
// On SIGINT/SIGTERM it drains: in-flight instants complete, ticker
// loops stop, and — when -assign-csv is set — the streaming assignment
// CSV is atomically persisted, byte-identical to a dita-sim -stream
// replay of the same event sequence.
//
// Endpoints (region defaults to "default"); each state-changing one
// carries one engine event, with its wire form in internal/serveapi:
//
//	POST   /v1/{region}/workers       WorkerArrive {"user","x","y","radius","at"} -> {"worker_id"}
//	DELETE /v1/{region}/workers/{id}  WorkerDepart                                -> {"departed"}
//	POST   /v1/{region}/tasks         TaskArrive {"x","y","publish","valid",...}  -> {"task_id"}
//	DELETE /v1/{region}/tasks/{id}    TaskExpire                                  -> {"withdrawn"}
//	POST   /v1/{region}/instant       InstantFire {"at"}                          -> instant result
//	GET    /v1/{region}/metrics                                                   -> totals + latency
//	GET    /healthz
//
// Every event request takes one path: 503 while draining, 404 for an
// unknown region, 400 for a malformed request (413 over 1 MiB), then
// engine.Apply, the only arrival validation, under the region lock:
// engine.ErrInvalidArrival answers 400, an id not pooled 404.
//
// Triggers: -trigger manual fires only on explicit /instant requests
// (the deterministic replay mode the serve smoke drives with dita-sim
// -stream -serve); -trigger batch fires inline, at the arrival's own
// time, as soon as -batch events accumulate (engine.Config.Batch) —
// departures carry no time, so they never fire one, and the next
// arrival does; -trigger tick fires every -tick of wall time at the
// scaled simulation clock (-sim-start + elapsed × -time-scale). Tick
// and batch refuse a non-positive -tick or -batch, which would never
// fire.
//
// Usage:
//
//	dita-serve -framework fw.json -addr :8080 -trigger tick -tick 2s
//	dita-serve -framework fw.json -trigger manual -assign-csv out.csv
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dita/internal/assign"
	"dita/internal/engine"
	"dita/internal/fwio"
	"dita/internal/influence"
)

func main() {
	log.SetFlags(0)
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		fwPath    = flag.String("framework", "", "sealed framework artifact to serve (required; see dita-bench -train-out)")
		regions   = flag.String("regions", "default", "comma-separated region names, one engine each")
		algName   = flag.String("alg", "IA", "algorithm: MTA, IA, EIA, DIA, MI or MIX")
		mask      = flag.String("mask", "IA", "influence components: IA (all), IA-WP, IA-AP or IA-AW")
		seed      = flag.Uint64("seed", 1, "influence-session seed")
		par       = flag.Int("parallel", 0, "worker pool bound per instant (0 = all cores)")
		trigName  = flag.String("trigger", "manual", "instant trigger: manual, tick or batch")
		tick      = flag.Duration("tick", 2*time.Second, "wall-time instant period for -trigger tick")
		batch     = flag.Int("batch", 64, "event-count threshold for -trigger batch")
		simStart  = flag.Float64("sim-start", 0, "simulation time (hours) at process start, for tick-triggered instants")
		timeScale = flag.Float64("time-scale", 1, "simulation hours per wall hour for tick-triggered instants")
		csvPath   = flag.String("assign-csv", "", "write the streaming assignment CSV here on drain (single region only)")
	)
	flag.Parse()

	if *fwPath == "" {
		log.Fatal("dita-serve: -framework is required")
	}
	alg, err := assign.ParseAlgorithm(*algName)
	if err != nil {
		log.Fatal(err)
	}
	comps, err := influence.ParseComponents(*mask)
	if err != nil {
		log.Fatal(err)
	}
	// A tick or batch server with a non-positive period or threshold
	// would never fire an instant on its own, so it is refused.
	var tickEvery time.Duration
	var batchN int
	switch *trigName {
	case "manual":
	case "tick":
		if *tick <= 0 {
			log.Fatalf("-trigger tick needs -tick > 0, got %s", *tick)
		}
		tickEvery = *tick
	case "batch":
		if *batch <= 0 {
			log.Fatalf("-trigger batch needs -batch > 0, got %d", *batch)
		}
		batchN = *batch
	default:
		log.Fatalf("unknown -trigger %q (want manual, tick or batch)", *trigName)
	}

	fw, info, err := fwio.Load(*fwPath)
	if err != nil {
		log.Fatalf("framework: %v", err)
	}
	log.Printf("serving framework %s (sha256 %.12s…, source %q)", *fwPath, info.Checksum, info.Source)

	procStart := time.Now() //dita:wallclock
	scale := *timeScale
	base := *simStart
	cfg := serverConfig{
		engine: engine.Config{
			Algorithm:   alg,
			Components:  comps,
			Seed:        *seed,
			Parallelism: *par,
			Batch:       batchN,
			Clock:       func() time.Duration { return time.Since(procStart) }, //dita:wallclock
		},
		regions: splitRegions(*regions),
		csvPath: *csvPath,
		tick:    tickEvery,
		simNow:  func() float64 { return base + time.Since(procStart).Hours()*scale }, //dita:wallclock
	}
	srv, err := newServer(fw, cfg)
	if err != nil {
		log.Fatal(err)
	}
	srv.startTickers()

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (regions %s, trigger %s)", *addr, *regions, *trigName)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case got := <-sig:
		log.Printf("%s: draining", got)
	case err := <-done:
		log.Fatalf("serve: %v", err)
	}
	// Stop accepting, finish in-flight handlers, then drain the engines
	// and persist the CSV. The shutdown context bounds how long lingering
	// connections can hold the exit, not the drain itself.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := srv.Drain(); err != nil {
		log.Fatal(err)
	}
	if *csvPath != "" {
		log.Printf("assignment CSV drained to %s", *csvPath)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
}

func splitRegions(s string) []string {
	var out []string
	for _, r := range strings.Split(s, ",") {
		if r = strings.TrimSpace(r); r != "" {
			out = append(out, r)
		}
	}
	return out
}
