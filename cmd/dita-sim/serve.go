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
	"dita/internal/serveapi"
)

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

	var m serveapi.Metrics
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
		if ev.Kind != engine.InstantFire {
			posted++
		}
		return c.send(ev)
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
		var ev engine.Event
		if nextIsWorker {
			ev = engine.Event{Kind: engine.WorkerArrive, At: ws[wi].At, Worker: ws[wi]}
			wi++
		} else {
			ev = engine.Event{Kind: engine.TaskArrive, At: ts[ti].Publish, Task: ts[ti]}
			ti++
		}
		due := time.Duration((ev.At - start) / speedup * float64(time.Hour))
		if wait := due - time.Since(wallStart); wait > 0 { //dita:wallclock
			time.Sleep(wait) //dita:wallclock
		}
		if err := c.send(ev); err != nil {
			return posted, err
		}
		posted++
	}
	return posted, nil
}

// send issues the request serveapi.Encode makes of ev.
func (c serveClient) send(ev engine.Event) error {
	method, path, body, err := serveapi.Encode(ev)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	return c.finish(method, path, resp, nil)
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
