package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dita/internal/atomicio"
	"dita/internal/core"
	"dita/internal/engine"
	"dita/internal/geo"
	"dita/internal/model"
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
	keep     bool
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
		s.regions[name] = &region{name: name, eng: eng, keep: cfg.csvPath != ""}
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)

	s.mux.HandleFunc("POST /v1/{region}/workers", s.handleWorkerArrive)
	s.mux.HandleFunc("DELETE /v1/{region}/workers/{id}", s.handleWorkerDepart)
	s.mux.HandleFunc("POST /v1/{region}/tasks", s.handleTaskArrive)
	s.mux.HandleFunc("DELETE /v1/{region}/tasks/{id}", s.handleTaskWithdraw)
	s.mux.HandleFunc("POST /v1/{region}/instant", s.handleInstant)
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
	if r.keep {
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

// refuseDraining rejects state-changing requests once Drain has begun.
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return true
	}
	return false
}

type workerReq struct {
	User   int32   `json:"user"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Radius float64 `json:"radius"`
	At     float64 `json:"at"`
}

type taskReq struct {
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	Publish    float64 `json:"publish"`
	Valid      float64 `json:"valid"`
	Categories []int32 `json:"categories"`
	Venue      int32   `json:"venue"`
}

type instantReq struct {
	At float64 `json:"at"`
}

// instantResp is the wire form of an instant: counts, latencies and the
// matched pairs in platform-stable identities.
type instantResp struct {
	At          float64               `json:"at"`
	Online      int                   `json:"online"`
	Open        int                   `json:"open"`
	Expired     int                   `json:"expired"`
	Assigned    []engine.AssignedPair `json:"assigned"`
	WilEntries  int                   `json:"wil_entries"`
	PrepareMs   float64               `json:"prepare_ms"`
	PairMaintMs float64               `json:"pair_maint_ms"`
	AssignMs    float64               `json:"assign_ms"`
}

func toInstantResp(ir engine.InstantResult) instantResp {
	return instantResp{
		At: ir.At, Online: ir.OnlineWorkers, Open: ir.OpenTasks,
		Expired: ir.Expired, Assigned: ir.Assigned, WilEntries: ir.WilEntries,
		PrepareMs:   durMs(ir.Prepare),
		PairMaintMs: durMs(ir.PairMaint),
		AssignMs:    durMs(ir.Metrics.CPU),
	}
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *Server) handleWorkerArrive(w http.ResponseWriter, req *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	r := s.region(w, req)
	if r == nil {
		return
	}
	var body workerReq
	if !decodeJSON(w, req, &body) {
		return
	}
	if body.Radius < 0 {
		writeErr(w, http.StatusBadRequest, "negative radius")
		return
	}
	r.mu.Lock()
	ap, err := r.eng.Apply(engine.Event{
		Kind: engine.WorkerArrive, At: body.At,
		Worker: engine.WorkerArrival{
			User: model.WorkerID(body.User), Loc: geo.Point{X: body.X, Y: body.Y},
			Radius: body.Radius, At: body.At,
		},
	})
	resp := map[string]any{"worker_id": ap.WorkerID}
	if err == nil && ap.FireNow {
		resp["instant"] = toInstantResp(s.fireLocked(r, body.At))
	}
	r.mu.Unlock()
	if err != nil {
		writeErr(w, arrivalStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTaskArrive(w http.ResponseWriter, req *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	r := s.region(w, req)
	if r == nil {
		return
	}
	var body taskReq
	if !decodeJSON(w, req, &body) {
		return
	}
	if body.Valid <= 0 {
		writeErr(w, http.StatusBadRequest, "non-positive validity")
		return
	}
	cats := make([]model.CategoryID, len(body.Categories))
	for i, c := range body.Categories {
		cats[i] = model.CategoryID(c)
	}
	r.mu.Lock()
	ap, err := r.eng.Apply(engine.Event{
		Kind: engine.TaskArrive, At: body.Publish,
		Task: engine.TaskArrival{
			Loc: geo.Point{X: body.X, Y: body.Y}, Publish: body.Publish,
			Valid: body.Valid, Categories: cats, Venue: model.VenueID(body.Venue),
		},
	})
	resp := map[string]any{"task_id": ap.TaskID}
	if err == nil && ap.FireNow {
		resp["instant"] = toInstantResp(s.fireLocked(r, body.Publish))
	}
	r.mu.Unlock()
	if err != nil {
		writeErr(w, arrivalStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// arrivalStatus maps an arrival's engine error to its HTTP status: an
// arrival the trained model cannot index is the client's fault (400),
// anything else the server's (500).
func arrivalStatus(err error) int {
	if errors.Is(err, engine.ErrInvalidArrival) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (s *Server) handleWorkerDepart(w http.ResponseWriter, req *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	r := s.region(w, req)
	if r == nil {
		return
	}
	id, ok := parseID(w, req)
	if !ok {
		return
	}
	r.mu.Lock()
	_, err := r.eng.Apply(engine.Event{Kind: engine.WorkerDepart, WorkerID: model.WorkerID(id)})
	r.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"departed": id})
}

func (s *Server) handleTaskWithdraw(w http.ResponseWriter, req *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	r := s.region(w, req)
	if r == nil {
		return
	}
	id, ok := parseID(w, req)
	if !ok {
		return
	}
	r.mu.Lock()
	_, err := r.eng.Apply(engine.Event{Kind: engine.TaskExpire, TaskID: model.TaskID(id)})
	r.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"withdrawn": id})
}

func (s *Server) handleInstant(w http.ResponseWriter, req *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	r := s.region(w, req)
	if r == nil {
		return
	}
	var body instantReq
	if !decodeJSON(w, req, &body) {
		return
	}
	r.mu.Lock()
	ir := s.fireLocked(r, body.At)
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, toInstantResp(ir))
}

// metricsResp is the per-region observability snapshot: pool and queue
// depths, cumulative engine totals, and latency aggregates.
type metricsResp struct {
	Region  string        `json:"region"`
	Online  int           `json:"online"`
	Open    int           `json:"open"`
	Pending int           `json:"pending"`
	Totals  engine.Totals `json:"totals"`
	Latency struct {
		PrepareTotalMs   float64 `json:"prepare_total_ms"`
		PrepareMaxMs     float64 `json:"prepare_max_ms"`
		PairMaintTotalMs float64 `json:"pair_maint_total_ms"`
		AssignTotalMs    float64 `json:"assign_total_ms"`
	} `json:"latency"`
	LastInstant struct {
		At         float64 `json:"at"`
		Assigned   int     `json:"assigned"`
		QueueDepth int     `json:"queue_depth"`
	} `json:"last_instant"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	r := s.region(w, req)
	if r == nil {
		return
	}
	r.mu.Lock()
	var m metricsResp
	m.Region = r.name
	m.Online = r.eng.Online()
	m.Open = r.eng.Open()
	m.Pending = r.eng.Pending()
	m.Totals = r.eng.Totals()
	m.Latency.PrepareTotalMs = durMs(r.sumPrepare)
	m.Latency.PrepareMaxMs = durMs(r.maxPrepare)
	m.Latency.PairMaintTotalMs = durMs(r.sumPairMaint)
	m.Latency.AssignTotalMs = durMs(r.sumAssign)
	m.LastInstant.At = r.lastAt
	m.LastInstant.Assigned = r.lastAssigned
	m.LastInstant.QueueDepth = r.lastDepth
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, m)
}

func parseID(w http.ResponseWriter, req *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(req.PathValue("id"), 10, 32)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad id %q", req.PathValue("id")))
		return 0, false
	}
	return id, true
}

// maxBodyBytes bounds a request body. The largest legitimate payload, a
// task with one entry per vocabulary category, is a few kilobytes.
const maxBodyBytes = 1 << 20

// decodeJSON strictly decodes the request body as exactly one JSON
// value; unknown fields, malformed payloads and anything but whitespace
// after the value are rejected with 400, and bodies over maxBodyBytes
// with 413, so a client typo cannot be silently half-applied.
func decodeJSON(w http.ResponseWriter, req *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// The body must end right after the value.
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("payload exceeds %d bytes", maxBodyBytes))
	} else {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad payload: %v", err))
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
