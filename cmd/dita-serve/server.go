package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dita/internal/atomicio"
	"dita/internal/core"
	"dita/internal/engine"
	"dita/internal/serveapi"
)

// serverConfig parameterizes a Server independently of flag parsing so
// tests can construct one directly.
type serverConfig struct {
	engine engine.Config
	// regions are the region names to serve, one engine each.
	regions []string
	// csvPath, when set, makes every region retain its instant results
	// and Drain write the streaming assignment CSV there (single-region
	// servers only — the CSV has no region column).
	csvPath string
	// tick is the wall-time period of the per-region firing loops that
	// startTickers launches; 0 launches none.
	tick time.Duration
	// simNow returns the current simulation time in hours for
	// tick-triggered instants; nil servers fire only on explicit
	// /instant requests and batch thresholds.
	simNow func() float64
}

// region is one independently served engine. The mutex serializes every
// engine access: the engine's session caches are single-threaded by
// contract, so concurrent arrivals and instants queue here — queue time
// is part of the latency a production deployment must watch, which is
// why fires record the pending depth they drained.
type region struct {
	name string
	mu   sync.Mutex
	eng  *engine.Engine
	// instants retained for the drain CSV (csvPath servers only).
	instants []engine.InstantResult
	// latency/queue aggregates for the metrics endpoint.
	sumPrepare   time.Duration
	sumPairMaint time.Duration
	sumAssign    time.Duration
	maxPrepare   time.Duration
	lastAt       float64
	lastAssigned int
	lastDepth    int
}

// Server is the dita-serve HTTP front-end: one engine per region behind
// a mutex, JSON endpoints for the engine's event model, and a drain path
// that completes in-flight instants and persists the assignment CSV.
type Server struct {
	cfg      serverConfig
	mux      *http.ServeMux
	regions  map[string]*region
	names    []string // sorted, for deterministic drain order
	draining atomic.Bool
	stop     chan struct{}
	tickers  sync.WaitGroup
	drainErr error
	drain    sync.Once
	// testHookFire, when set, runs inside the instant critical section
	// (region lock held, before the engine fires) — the seam the drain
	// test uses to hold an instant in flight.
	testHookFire func()
}

func newServer(fw *core.Framework, cfg serverConfig) (*Server, error) {
	if len(cfg.regions) == 0 {
		return nil, fmt.Errorf("serve: no regions")
	}
	if cfg.csvPath != "" && len(cfg.regions) != 1 {
		return nil, fmt.Errorf("serve: -assign-csv needs exactly one region, got %d", len(cfg.regions))
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		regions: make(map[string]*region, len(cfg.regions)),
		stop:    make(chan struct{}),
	}
	for _, name := range cfg.regions {
		if _, dup := s.regions[name]; dup {
			return nil, fmt.Errorf("serve: duplicate region %q", name)
		}
		eng, err := engine.New(fw, cfg.engine)
		if err != nil {
			return nil, err
		}
		s.regions[name] = &region{name: name, eng: eng}
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)

	for _, rt := range serveapi.Routes {
		s.mux.HandleFunc(rt.Method+" /v1/{region}"+rt.Path, s.handleEvent(rt.Kind))
	}
	s.mux.HandleFunc("GET /v1/{region}/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return s, nil
}

// ServeHTTP makes the server mountable under httptest and http.Server
// alike.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// startTickers launches one wall-clock firing loop per region when the
// server has a tick period and a simulation clock. The loops stop at
// Drain.
func (s *Server) startTickers() {
	if s.cfg.tick <= 0 || s.cfg.simNow == nil {
		return
	}
	for _, name := range s.names {
		r := s.regions[name]
		s.tickers.Add(1)
		go func() {
			defer s.tickers.Done()
			tk := time.NewTicker(s.cfg.tick) //dita:wallclock
			defer tk.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-tk.C:
					now := s.cfg.simNow()
					r.mu.Lock()
					s.fireLocked(r, now)
					r.mu.Unlock()
				}
			}
		}()
	}
}

// Drain ends the serving loop deterministically: ticker loops stop, new
// events are refused with 503, in-flight instants run to completion
// (their region lock is awaited), and each retained region's assignment
// CSV is atomically persisted. Safe to call more than once; later calls
// return the first drain's result.
func (s *Server) Drain() error {
	s.drain.Do(func() {
		s.draining.Store(true)
		close(s.stop)
		s.tickers.Wait()
		if s.cfg.csvPath == "" {
			return
		}
		for _, name := range s.names {
			r := s.regions[name]
			r.mu.Lock()
			csv := engine.AssignCSV(r.instants)
			r.mu.Unlock()
			if err := atomicio.WriteFile(s.cfg.csvPath, csv, 0o644); err != nil {
				s.drainErr = fmt.Errorf("serve: drain CSV: %w", err)
				return
			}
		}
	})
	return s.drainErr
}

// fireLocked runs one instant with r.mu held and updates the region's
// aggregates.
func (s *Server) fireLocked(r *region, at float64) engine.InstantResult {
	if s.testHookFire != nil {
		s.testHookFire()
	}
	depth := r.eng.Pending()
	ir := r.eng.Fire(at)
	r.sumPrepare += ir.Prepare
	r.sumPairMaint += ir.PairMaint
	r.sumAssign += ir.Metrics.CPU
	if ir.Prepare > r.maxPrepare {
		r.maxPrepare = ir.Prepare
	}
	r.lastAt = at
	r.lastAssigned = len(ir.Assigned)
	r.lastDepth = depth
	if s.cfg.csvPath != "" {
		r.instants = append(r.instants, ir)
	}
	return ir
}

// region resolves the request's {region} path value; nil means the
// response is already written.
func (s *Server) region(w http.ResponseWriter, req *http.Request) *region {
	r, ok := s.regions[req.PathValue("region")]
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("unknown region %q", req.PathValue("region")))
		return nil
	}
	return r
}

// maxBodyBytes bounds a request body. The largest legitimate payload, a
// task with one entry per vocabulary category, is a few kilobytes.
const maxBodyBytes = 1 << 20

// handleEvent serves every state-changing endpoint, the route of one
// event kind: it refuses requests while draining (503), resolves the
// region, decodes the request into an engine event (400 for a malformed
// request, 413 for a body over maxBodyBytes) and applies it under the
// region lock. engine.Apply is the only arrival gate: ErrInvalidArrival
// answers 400 and an unknown worker or task id 404. An arrival that
// reaches the batch threshold fires its instant inline at the arrival's
// own time; departures carry no time, so they never do.
func (s *Server) handleEvent(kind engine.EventKind) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if s.draining.Load() {
			writeErr(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		r := s.region(w, req)
		if r == nil {
			return
		}
		ev, err := serveapi.Decode(kind, http.MaxBytesReader(w, req.Body, maxBodyBytes), req.PathValue("id"))
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("payload exceeds %d bytes", maxBodyBytes))
			} else {
				writeErr(w, http.StatusBadRequest, err.Error())
			}
			return
		}
		r.mu.Lock()
		var ap engine.Applied
		fire := kind == engine.InstantFire
		if !fire {
			ap, err = r.eng.Apply(ev)
			fire = err == nil && ap.FireNow && (kind == engine.WorkerArrive || kind == engine.TaskArrive)
		}
		if fire {
			ir := s.fireLocked(r, ev.At)
			ap.Instant = &ir
		}
		r.mu.Unlock()
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, serveapi.Reply(ev, ap))
		case errors.Is(err, engine.ErrInvalidArrival):
			writeErr(w, http.StatusBadRequest, err.Error())
		case errors.Is(err, engine.ErrUnknownWorker), errors.Is(err, engine.ErrUnknownTask):
			writeErr(w, http.StatusNotFound, err.Error())
		default:
			writeErr(w, http.StatusInternalServerError, err.Error())
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	r := s.region(w, req)
	if r == nil {
		return
	}
	r.mu.Lock()
	var m serveapi.Metrics
	m.Region = r.name
	m.Online = r.eng.Online()
	m.Open = r.eng.Open()
	m.Pending = r.eng.Pending()
	m.Totals = r.eng.Totals()
	m.Latency.PrepareTotalMs = serveapi.Millis(r.sumPrepare)
	m.Latency.PrepareMaxMs = serveapi.Millis(r.maxPrepare)
	m.Latency.PairMaintTotalMs = serveapi.Millis(r.sumPairMaint)
	m.Latency.AssignTotalMs = serveapi.Millis(r.sumAssign)
	m.LastInstant.At = r.lastAt
	m.LastInstant.Assigned = r.lastAssigned
	m.LastInstant.QueueDepth = r.lastDepth
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, m)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
