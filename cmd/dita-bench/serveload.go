package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dita/internal/dataset"
	"dita/internal/engine"
	"dita/internal/trace"
)

// serve-load replays a deterministic arrival trace against a running
// dita-serve instance. The trace is rebuilt locally from (dataset
// preset, trace params) — identical flags on dita-sim -stream produce
// the identical workload, so the server's drained assignment CSV can be
// diffed byte for byte against the in-process replay. That diff is the
// CI serve smoke: the live HTTP path and the batch path are the same
// engine fed the same events, and the bytes prove it.
//
// With -serve-speedup 0 (the default) the replay is deterministic: per
// grid instant every due worker is POSTed (in trace order), then every
// due task, then an explicit /instant at the grid time — the events of
// engine.Grid, the order dita-sim -stream replays, which is what makes the
// minted platform ids, and therefore the CSVs, line up. With a positive
// speedup the client paces arrivals on the wall clock at that multiple
// of trace time and fires nothing: the server's own trigger (tick or
// batch) decides the instants.
type serveLoadConfig struct {
	url, region string
	preset      string
	day         int
	arrivals    int
	traceSeed   uint64
	spread      float64
	radius      float64
	valid       float64
	validSpan   float64
	step        float64
	horizon     float64
	speedup     float64
}

// Wire forms of the dita-serve endpoints (kept in sync with
// cmd/dita-serve; cmd packages cannot import each other).
type serveWorkerReq struct {
	User   int32   `json:"user"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Radius float64 `json:"radius"`
	At     float64 `json:"at"`
}

type serveTaskReq struct {
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	Publish    float64 `json:"publish"`
	Valid      float64 `json:"valid"`
	Categories []int32 `json:"categories"`
	Venue      int32   `json:"venue"`
}

type serveMetrics struct {
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
}

func runServeLoad(cfg serveLoadConfig) error {
	dp, err := dataset.Preset(cfg.preset)
	if err != nil {
		return err
	}
	data, err := dataset.Generate(dp)
	if err != nil {
		return fmt.Errorf("generate %s: %w", dp.Name, err)
	}
	gridStart := float64(cfg.day) * 24
	ws, ts, err := trace.Build(data, trace.Params{
		Arrivals: cfg.arrivals, Seed: cfg.traceSeed,
		Start: gridStart, Spread: cfg.spread, RadiusKm: cfg.radius,
		ValidMin: cfg.valid, ValidSpan: cfg.validSpan,
	})
	if err != nil {
		return err
	}

	c := &serveClient{base: strings.TrimRight(cfg.url, "/"), region: cfg.region}
	if err := c.get("/healthz", nil); err != nil {
		return fmt.Errorf("server not reachable: %w", err)
	}

	wall := time.Now() //dita:wallclock
	var posted int
	if cfg.speedup > 0 {
		posted, err = c.replayPaced(ws, ts, gridStart, cfg.speedup)
	} else {
		posted, err = c.replayGrid(ws, ts, gridStart, cfg.step, cfg.horizon)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(wall) //dita:wallclock

	var m serveMetrics
	if err := c.get("/v1/"+cfg.region+"/metrics", &m); err != nil {
		return err
	}
	fmt.Printf("\nserve-load against %s (region %s, %d events in %s):\n",
		cfg.url, cfg.region, posted, elapsed.Round(time.Millisecond))
	fmt.Printf("  instants fired       %d\n", m.Totals.Instants)
	fmt.Printf("  assigned tasks       %d\n", m.Totals.Assigned)
	fmt.Printf("  expired tasks        %d\n", m.Totals.Expired)
	fmt.Printf("  still online/open    %d/%d (pending %d)\n", m.Online, m.Open, m.Pending)
	fmt.Printf("  server prepare       %.1f ms total, %.1f ms max/instant\n",
		m.Latency.PrepareTotalMs, m.Latency.PrepareMaxMs)
	fmt.Printf("  server pair maint    %.1f ms total\n", m.Latency.PairMaintTotalMs)
	fmt.Printf("  server assignment    %.1f ms total\n", m.Latency.AssignTotalMs)
	return nil
}

// replayGrid is the deterministic mode: the events of engine.Grid
// spoken over HTTP — workers then tasks due at each grid instant, then
// the instant itself. It returns the number of arrivals posted.
func (c *serveClient) replayGrid(ws []engine.WorkerArrival, ts []engine.TaskArrival, start, step, horizon float64) (int, error) {
	posted := 0
	err := engine.Grid{Start: start, Step: step, Horizon: horizon}.Events(ws, ts, func(ev engine.Event) error {
		switch ev.Kind {
		case engine.WorkerArrive:
			posted++
			return c.postWorker(ev.Worker)
		case engine.TaskArrive:
			posted++
			return c.postTask(ev.Task)
		}
		body, _ := json.Marshal(map[string]float64{"at": ev.At})
		return c.post("/v1/"+c.region+"/instant", body)
	})
	return posted, err
}

// replayPaced streams arrivals on the wall clock at speedup× trace
// time and lets the server's own trigger fire the instants.
func (c *serveClient) replayPaced(ws []engine.WorkerArrival, ts []engine.TaskArrival, start, speedup float64) (int, error) {
	wallStart := time.Now() //dita:wallclock
	posted := 0
	wi, ti := 0, 0
	for wi < len(ws) || ti < len(ts) {
		// Next event in trace order, workers before tasks on ties — the
		// same precedence the grid replay admits them with.
		nextIsWorker := ti >= len(ts) || (wi < len(ws) && ws[wi].At <= ts[ti].Publish)
		var at float64
		if nextIsWorker {
			at = ws[wi].At
		} else {
			at = ts[ti].Publish
		}
		due := time.Duration((at - start) / speedup * float64(time.Hour))
		if wait := due - time.Since(wallStart); wait > 0 { //dita:wallclock
			time.Sleep(wait) //dita:wallclock
		}
		var err error
		if nextIsWorker {
			err = c.postWorker(ws[wi])
			wi++
		} else {
			err = c.postTask(ts[ti])
			ti++
		}
		if err != nil {
			return posted, err
		}
		posted++
	}
	return posted, nil
}

type serveClient struct {
	base, region string
}

func (c *serveClient) postWorker(w engine.WorkerArrival) error {
	body, _ := json.Marshal(serveWorkerReq{
		User: int32(w.User), X: w.Loc.X, Y: w.Loc.Y, Radius: w.Radius, At: w.At,
	})
	return c.post("/v1/"+c.region+"/workers", body)
}

func (c *serveClient) postTask(t engine.TaskArrival) error {
	cats := make([]int32, len(t.Categories))
	for i, cat := range t.Categories {
		cats[i] = int32(cat)
	}
	body, _ := json.Marshal(serveTaskReq{
		X: t.Loc.X, Y: t.Loc.Y, Publish: t.Publish, Valid: t.Valid,
		Categories: cats, Venue: int32(t.Venue),
	})
	return c.post("/v1/"+c.region+"/tasks", body)
}

func (c *serveClient) post(path string, body []byte) error {
	resp, err := http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

func (c *serveClient) get(path string, out any) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
