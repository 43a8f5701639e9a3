// Package serveapi is the wire protocol of cmd/dita-serve: the JSON
// bodies of its endpoints and the one mapping between an engine.Event
// and its HTTP request, which the server decodes through and the
// dita-sim -serve client encodes through. It checks only the wire form;
// whether an arrival is acceptable is engine.Apply's call.
package serveapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"dita/internal/engine"
	"dita/internal/geo"
	"dita/internal/model"
)

// Worker is the body of POST /workers, a WorkerArrive.
type Worker struct {
	User   int32   `json:"user"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Radius float64 `json:"radius"`
	At     float64 `json:"at"`
}

// Task is the body of POST /tasks, a TaskArrive.
type Task struct {
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	Publish    float64 `json:"publish"`
	Valid      float64 `json:"valid"`
	Categories []int32 `json:"categories"`
	Venue      int32   `json:"venue"`
}

// Instant is the body of POST /instant, an InstantFire.
type Instant struct {
	At float64 `json:"at"`
}

// Routes are the state-changing endpoints, one per event kind: the
// method and the path under a region's base URL ({id} is the departing
// entity's platform id).
var Routes = []struct {
	Kind         engine.EventKind
	Method, Path string
}{
	{engine.WorkerArrive, "POST", "/workers"},
	{engine.WorkerDepart, "DELETE", "/workers/{id}"},
	{engine.TaskArrive, "POST", "/tasks"},
	{engine.TaskExpire, "DELETE", "/tasks/{id}"},
	{engine.InstantFire, "POST", "/instant"},
}

// Encode returns the request that carries ev: its method, its path
// under the region's base URL, and its JSON body (nil for a departure
// or withdrawal, which the path names).
func Encode(ev engine.Event) (method, path string, body []byte, err error) {
	var v any
	var id int
	switch ev.Kind {
	case engine.WorkerArrive:
		w := ev.Worker
		v = Worker{User: int32(w.User), X: w.Loc.X, Y: w.Loc.Y, Radius: w.Radius, At: w.At}
	case engine.TaskArrive:
		t := ev.Task
		cats := make([]int32, len(t.Categories))
		for i, c := range t.Categories {
			cats[i] = int32(c)
		}
		v = Task{X: t.Loc.X, Y: t.Loc.Y, Publish: t.Publish, Valid: t.Valid, Categories: cats, Venue: int32(t.Venue)}
	case engine.InstantFire:
		v = Instant{At: ev.At}
	case engine.WorkerDepart:
		id = int(ev.WorkerID)
	case engine.TaskExpire:
		id = int(ev.TaskID)
	}
	for _, rt := range Routes {
		if rt.Kind == ev.Kind {
			if v != nil {
				body, err = json.Marshal(v)
			}
			return rt.Method, strings.Replace(rt.Path, "{id}", strconv.Itoa(id), 1), body, err
		}
	}
	return "", "", nil, fmt.Errorf("serveapi: no endpoint for %v", ev.Kind)
}

// Decode reads the request for an event of the given kind: the JSON
// body of an arrival or an instant, or the {id} path value of a
// departure or withdrawal. An arrival's own time becomes the event's
// At, the time a batch instant it triggers fires at.
func Decode(kind engine.EventKind, body io.Reader, id string) (engine.Event, error) {
	ev := engine.Event{Kind: kind}
	var err error
	switch kind {
	case engine.WorkerArrive:
		var w Worker
		err = decodeStrict(body, &w)
		ev.At = w.At
		ev.Worker = engine.WorkerArrival{
			User: model.WorkerID(w.User), Loc: geo.Point{X: w.X, Y: w.Y}, Radius: w.Radius, At: w.At,
		}
	case engine.TaskArrive:
		var t Task
		err = decodeStrict(body, &t)
		cats := make([]model.CategoryID, len(t.Categories))
		for i, c := range t.Categories {
			cats[i] = model.CategoryID(c)
		}
		ev.At = t.Publish
		ev.Task = engine.TaskArrival{
			Loc: geo.Point{X: t.X, Y: t.Y}, Publish: t.Publish, Valid: t.Valid,
			Categories: cats, Venue: model.VenueID(t.Venue),
		}
	case engine.InstantFire:
		var in Instant
		err = decodeStrict(body, &in)
		ev.At = in.At
	case engine.WorkerDepart, engine.TaskExpire:
		n, perr := strconv.ParseInt(id, 10, 32)
		if perr != nil {
			return ev, fmt.Errorf("bad id %q", id)
		}
		if kind == engine.WorkerDepart {
			ev.WorkerID = model.WorkerID(n)
		} else {
			ev.TaskID = model.TaskID(n)
		}
	default:
		return ev, fmt.Errorf("serveapi: no endpoint for %v", kind)
	}
	return ev, err
}

// decodeStrict decodes r as exactly one JSON value: unknown fields,
// malformed payloads and anything but whitespace after the value are
// errors, so a client typo cannot be half-applied. Read errors, such as
// an over-limit body, stay wrapped.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// The body must end right after the value.
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	return fmt.Errorf("bad payload: %w", err)
}

// InstantResult is the wire form of an instant: counts, latencies and
// the matched pairs in platform-stable identities.
type InstantResult struct {
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

func newInstantResult(ir engine.InstantResult) InstantResult {
	return InstantResult{
		At: ir.At, Online: ir.OnlineWorkers, Open: ir.OpenTasks,
		Expired: ir.Expired, Assigned: ir.Assigned, WilEntries: ir.WilEntries,
		PrepareMs:   Millis(ir.Prepare),
		PairMaintMs: Millis(ir.PairMaint),
		AssignMs:    Millis(ir.Metrics.CPU),
	}
}

// Reply is the 200 body answering ev, which the engine applied as ap:
// an arrival's minted id (with the instant it fired inline, if any), a
// departure's or withdrawal's id, or the instant's result.
func Reply(ev engine.Event, ap engine.Applied) any {
	var out map[string]any
	switch ev.Kind {
	case engine.WorkerArrive:
		out = map[string]any{"worker_id": ap.WorkerID}
	case engine.TaskArrive:
		out = map[string]any{"task_id": ap.TaskID}
	case engine.WorkerDepart:
		return map[string]any{"departed": ev.WorkerID}
	case engine.TaskExpire:
		return map[string]any{"withdrawn": ev.TaskID}
	default:
		return newInstantResult(*ap.Instant)
	}
	if ap.Instant != nil {
		out["instant"] = newInstantResult(*ap.Instant)
	}
	return out
}

// Metrics is the body of GET /metrics: a region's pool and queue
// depths, cumulative engine totals, and latency aggregates.
type Metrics struct {
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

// Millis is d in milliseconds, the unit of every wire latency.
func Millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
