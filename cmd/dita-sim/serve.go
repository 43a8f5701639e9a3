package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dita/internal/engine"
)

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

// runServe replays the trace against the dita-serve region at url (its
// base, e.g. http://127.0.0.1:8080/v1/default) and prints the server's
// metrics. With speedup 0 it speaks the grid's events — due workers,
// then due tasks, then an explicit instant, per grid step — the order
// Engine.Replay applies, so the server mints the same ids and drains the
// same CSV as the in-process replay. With a positive speedup it paces
// the arrivals on the wall clock at that multiple of trace time and
// fires nothing: the server's own trigger decides the instants.
func runServe(url string, speedup float64, g engine.Grid, ws []engine.WorkerArrival, ts []engine.TaskArrival) error {
	c := serveClient{base: strings.TrimRight(url, "/")}
	// The region's metrics double as the reachability check, so an
	// unknown region fails here with the server's 404.
	if err := c.get("/metrics", nil); err != nil {
		return fmt.Errorf("server not reachable: %w", err)
	}

	wall := time.Now() //dita:wallclock
	var posted int
	var err error
	if speedup > 0 {
		posted, err = c.replayPaced(ws, ts, g.Start, speedup)
	} else {
		posted, err = c.replayGrid(g, ws, ts)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(wall) //dita:wallclock

	var m serveMetrics
	if err := c.get("/metrics", &m); err != nil {
		return err
	}
	fmt.Printf("\nserved to %s (%d events in %s):\n", c.base, posted, elapsed.Round(time.Millisecond))
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

// serveClient speaks to one dita-serve region; base is the region's URL
// without a trailing slash.
type serveClient struct {
	base string
}

// replayGrid posts the events of the grid and returns the number of
// arrivals posted.
func (c serveClient) replayGrid(g engine.Grid, ws []engine.WorkerArrival, ts []engine.TaskArrival) (int, error) {
	posted := 0
	err := g.Events(ws, ts, func(ev engine.Event) error {
		switch ev.Kind {
		case engine.WorkerArrive:
			posted++
			return c.postWorker(ev.Worker)
		case engine.TaskArrive:
			posted++
			return c.postTask(ev.Task)
		}
		body, _ := json.Marshal(map[string]float64{"at": ev.At})
		return c.post("/instant", body)
	})
	return posted, err
}

// replayPaced posts the arrivals in trace order on the wall clock at
// speedup× trace time, counted from start, and returns the number
// posted.
func (c serveClient) replayPaced(ws []engine.WorkerArrival, ts []engine.TaskArrival, start, speedup float64) (int, error) {
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

func (c serveClient) postWorker(w engine.WorkerArrival) error {
	body, _ := json.Marshal(serveWorkerReq{
		User: int32(w.User), X: w.Loc.X, Y: w.Loc.Y, Radius: w.Radius, At: w.At,
	})
	return c.post("/workers", body)
}

func (c serveClient) postTask(t engine.TaskArrival) error {
	cats := make([]int32, len(t.Categories))
	for i, cat := range t.Categories {
		cats[i] = int32(cat)
	}
	body, _ := json.Marshal(serveTaskReq{
		X: t.Loc.X, Y: t.Loc.Y, Publish: t.Publish, Valid: t.Valid,
		Categories: cats, Venue: int32(t.Venue),
	})
	return c.post("/tasks", body)
}

func (c serveClient) post(path string, body []byte) error {
	resp, err := http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return c.finish("POST", path, resp, nil)
}

func (c serveClient) get(path string, out any) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	return c.finish("GET", path, resp, out)
}

// finish checks the response status, decodes the body into out (or
// discards it when out is nil) and closes it. A non-200 status becomes
// an error naming the method, the path and the server's message.
func (c serveClient) finish(method, path string, resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, c.base+path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
