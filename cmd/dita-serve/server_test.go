package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dita/internal/assign"
	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/engine"
	"dita/internal/lda"
	"dita/internal/serveapi"
	"dita/internal/trace"
)

func testFramework(t testing.TB) (*core.Framework, *dataset.Data) {
	t.Helper()
	p := dataset.BrightkiteLike()
	p.NumUsers = 120
	p.NumVenues = 150
	p.Days = 5
	p.Seed = 33
	data, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cutoff := 4 * 24.0
	fw, err := core.Train(core.TrainingDataFrom(data, cutoff), core.Config{LDA: lda.Config{Topics: 8, TrainIters: 25}})
	if err != nil {
		t.Fatal(err)
	}
	return fw, data
}

func testServer(t *testing.T, fw *core.Framework, cfg serverConfig) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.regions == nil {
		cfg.regions = []string{"default"}
	}
	cfg.engine.Algorithm = assign.IA
	if cfg.engine.Seed == 0 {
		cfg.engine.Seed = 7
	}
	srv, err := newServer(fw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// do issues one JSON request and decodes the JSON response into out
// (out may be nil).
func do(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// send issues the request serveapi.Encode makes of ev against the region
// base URL and decodes the JSON response into out (out may be nil).
func send(t *testing.T, base string, ev engine.Event, out any) int {
	t.Helper()
	method, path, body, err := serveapi.Encode(ev)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, method, base+path, string(body), out)
}

func arrive(w engine.WorkerArrival) engine.Event {
	return engine.Event{Kind: engine.WorkerArrive, At: w.At, Worker: w}
}

func publish(t engine.TaskArrival) engine.Event {
	return engine.Event{Kind: engine.TaskArrive, At: t.Publish, Task: t}
}

func TestServeRoundTrips(t *testing.T) {
	fw, data := testFramework(t)
	srv, ts := testServer(t, fw, serverConfig{})
	_ = srv

	var health map[string]string
	if code := do(t, "GET", ts.URL+"/healthz", nil, &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}

	// Arrivals mint consecutive stable ids.
	ws, tks, err := trace.Build(data, trace.Params{Arrivals: 20, Seed: 3, Start: 96, Spread: 4, RadiusKm: 25, ValidMin: 4, ValidSpan: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, wa := range ws {
		var got struct {
			WorkerID int `json:"worker_id"`
		}
		body := serveapi.Worker{User: int32(wa.User), X: wa.Loc.X, Y: wa.Loc.Y, Radius: wa.Radius, At: wa.At}
		if code := do(t, "POST", ts.URL+"/v1/default/workers", body, &got); code != 200 {
			t.Fatalf("worker arrival %d: status %d", i, code)
		}
		if got.WorkerID != i {
			t.Fatalf("worker %d minted id %d", i, got.WorkerID)
		}
	}
	for i, ta := range tks {
		var got struct {
			TaskID int `json:"task_id"`
		}
		cats := make([]int32, len(ta.Categories))
		for k, c := range ta.Categories {
			cats[k] = int32(c)
		}
		body := serveapi.Task{X: ta.Loc.X, Y: ta.Loc.Y, Publish: ta.Publish, Valid: ta.Valid, Categories: cats, Venue: int32(ta.Venue)}
		if code := do(t, "POST", ts.URL+"/v1/default/tasks", body, &got); code != 200 {
			t.Fatalf("task arrival %d: status %d", i, code)
		}
		if got.TaskID != i {
			t.Fatalf("task %d minted id %d", i, got.TaskID)
		}
	}

	// Departure round-trip: 200 once, 404 after.
	if code := do(t, "DELETE", ts.URL+"/v1/default/workers/0", nil, nil); code != 200 {
		t.Fatalf("departure: status %d", code)
	}
	if code := do(t, "DELETE", ts.URL+"/v1/default/workers/0", nil, nil); code != 404 {
		t.Fatalf("second departure: status %d, want 404", code)
	}
	if code := do(t, "DELETE", ts.URL+"/v1/default/tasks/5", nil, nil); code != 200 {
		t.Fatalf("withdrawal: status %d", code)
	}
	if code := do(t, "DELETE", ts.URL+"/v1/default/tasks/999", nil, nil); code != 404 {
		t.Fatalf("unknown withdrawal: status %d, want 404", code)
	}

	// An explicit instant assigns and reports stable-id pairs.
	var ir serveapi.InstantResult
	if code := do(t, "POST", ts.URL+"/v1/default/instant", serveapi.Instant{At: 101}, &ir); code != 200 {
		t.Fatalf("instant: status %d", code)
	}
	if len(ir.Assigned) == 0 {
		t.Fatal("instant assigned nothing; test pools too sparse")
	}
	for _, pr := range ir.Assigned {
		if pr.Worker == 0 {
			t.Error("departed worker 0 was assigned")
		}
		if pr.Task == 5 {
			t.Error("withdrawn task 5 was assigned")
		}
	}

	// Metrics reflect the run.
	var m serveapi.Metrics
	if code := do(t, "GET", ts.URL+"/v1/default/metrics", nil, &m); code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Totals.Instants != 1 || m.Totals.Assigned != len(ir.Assigned) {
		t.Fatalf("metrics totals %+v, want 1 instant / %d assigned", m.Totals, len(ir.Assigned))
	}
	if m.Totals.Departed != 1 || m.Totals.Cancelled != 1 {
		t.Fatalf("metrics totals %+v, want 1 departed / 1 cancelled", m.Totals)
	}
	if m.Online != 20-1-len(ir.Assigned) {
		t.Fatalf("online %d after %d assigned and 1 departure", m.Online, len(ir.Assigned))
	}
	if m.LastInstant.At != 101 || m.LastInstant.Assigned != len(ir.Assigned) {
		t.Fatalf("last instant %+v", m.LastInstant)
	}
}

// TestServeTinyRadiusInstant: workers whose radius is tiny next to the
// pool's extent make the instant's tiling ask for more tiles than an int
// holds. The instant must still answer 200 with the co-located pairs,
// and the region must stay unlocked, so GET /metrics answers after it.
func TestServeTinyRadiusInstant(t *testing.T) {
	fw, _ := testFramework(t)
	_, ts := testServer(t, fw, serverConfig{})
	for i, x := range []float64{0, 1000} {
		w := serveapi.Worker{User: int32(i), X: x, Y: x, Radius: 1e-9}
		if code := do(t, "POST", ts.URL+"/v1/default/workers", w, nil); code != 200 {
			t.Fatalf("worker arrival %d: status %d", i, code)
		}
		task := serveapi.Task{X: x, Y: x, Valid: 1, Categories: []int32{0}}
		if code := do(t, "POST", ts.URL+"/v1/default/tasks", task, nil); code != 200 {
			t.Fatalf("task arrival %d: status %d", i, code)
		}
	}
	var ir serveapi.InstantResult
	if code := do(t, "POST", ts.URL+"/v1/default/instant", serveapi.Instant{At: 0}, &ir); code != 200 {
		t.Fatalf("instant: status %d", code)
	}
	if len(ir.Assigned) != 2 {
		t.Fatalf("instant assigned %d pairs, want the 2 co-located ones", len(ir.Assigned))
	}
	var m serveapi.Metrics
	if code := do(t, "GET", ts.URL+"/v1/default/metrics", nil, &m); code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Totals.Instants != 1 || m.Totals.Assigned != 2 {
		t.Fatalf("metrics totals %+v, want 1 instant / 2 assigned", m.Totals)
	}
}

func TestServeMalformedPayloadsRejected(t *testing.T) {
	fw, _ := testFramework(t)
	_, ts := testServer(t, fw, serverConfig{})
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"truncated json", "POST", "/v1/default/workers", `{"user": 1,`, 400},
		{"unknown field", "POST", "/v1/default/workers", `{"user":1,"velocity":9}`, 400},
		{"wrong type", "POST", "/v1/default/tasks", `{"publish":"noon"}`, 400},
		{"negative radius", "POST", "/v1/default/workers", `{"user":1,"radius":-2}`, 400},
		{"zero validity", "POST", "/v1/default/tasks", `{"x":1,"y":1}`, 400},
		{"user outside the graph", "POST", "/v1/default/workers", `{"user":1073741824,"radius":5}`, 400},
		{"category outside the vocabulary", "POST", "/v1/default/tasks", `{"x":1,"y":1,"valid":2,"categories":[1073741824]}`, 400},
		{"instant junk", "POST", "/v1/default/instant", `nope`, 400},
		{"trailing json value", "POST", "/v1/default/workers", `{"user":1,"radius":5}{"user":2,"radius":5}`, 400},
		{"body over the size limit", "POST", "/v1/default/tasks", `{"x":1,"y":1,"valid":2,"categories":[` + strings.Repeat("0,", maxBodyBytes/2) + `0]}`, 413},
		{"unknown region", "POST", "/v1/mars/workers", `{"user":1}`, 404},
		{"unknown region metrics", "GET", "/v1/mars/metrics", "", 404},
		{"bad id", "DELETE", "/v1/default/workers/abc", "", 400},
		{"wrong method", "GET", "/v1/default/workers", "", 405},
	}
	for _, c := range cases {
		if code := do(t, c.method, ts.URL+c.path, c.body, nil); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
	}
	// Nothing was half-applied: the pools are untouched.
	var m serveapi.Metrics
	do(t, "GET", ts.URL+"/v1/default/metrics", nil, &m)
	if m.Online != 0 || m.Open != 0 || m.Totals.Events != 0 {
		t.Fatalf("rejected payloads mutated state: %+v", m)
	}
	// Trailing whitespace after the one value is not trailing data.
	if code := do(t, "POST", ts.URL+"/v1/default/workers", "{\"user\":1,\"radius\":5}\n \t", nil); code != 200 {
		t.Fatalf("body with trailing whitespace: status %d, want 200", code)
	}
}

func TestServeBatchTriggerFiresInline(t *testing.T) {
	fw, data := testFramework(t)
	_, ts := testServer(t, fw, serverConfig{engine: engine.Config{Batch: 4}})
	ws, _, err := trace.Build(data, trace.Params{Arrivals: 4, Seed: 3, Start: 96, Spread: 1, RadiusKm: 25, ValidMin: 4, ValidSpan: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, wa := range ws {
		var got map[string]json.RawMessage
		if code := send(t, ts.URL+"/v1/default", arrive(wa), &got); code != 200 {
			t.Fatalf("arrival %d: status %d", i, code)
		}
		_, fired := got["instant"]
		if want := i == 3; fired != want {
			t.Fatalf("arrival %d: instant fired %v, want %v", i, fired, want)
		}
	}
	var m serveapi.Metrics
	do(t, "GET", ts.URL+"/v1/default/metrics", nil, &m)
	if m.Totals.Instants != 1 || m.Pending != 0 {
		t.Fatalf("after batch fire: %+v", m)
	}
}

// TestServeDepartureNeverFiresInline: a departure carries no time, so
// even one that brings the pending count to the batch threshold fires
// no instant; the next arrival does, at its own time.
func TestServeDepartureNeverFiresInline(t *testing.T) {
	fw, data := testFramework(t)
	_, ts := testServer(t, fw, serverConfig{engine: engine.Config{Batch: 3}})
	ws, _, err := trace.Build(data, trace.Params{Arrivals: 3, Seed: 3, Start: 96, Spread: 1, RadiusKm: 25, ValidMin: 4, ValidSpan: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/default"
	for i, ev := range []engine.Event{arrive(ws[0]), arrive(ws[1]), {Kind: engine.WorkerDepart, WorkerID: 0}, arrive(ws[2])} {
		var got map[string]json.RawMessage
		if code := send(t, base, ev, &got); code != 200 {
			t.Fatalf("event %d (%v): status %d", i, ev.Kind, code)
		}
		_, fired := got["instant"]
		if want := i == 3; fired != want {
			t.Fatalf("event %d (%v): instant fired %v, want %v", i, ev.Kind, fired, want)
		}
	}
	var m serveapi.Metrics
	do(t, "GET", base+"/metrics", nil, &m)
	if m.Totals.Instants != 1 || m.Pending != 0 || m.LastInstant.At != ws[2].At {
		t.Fatalf("after the arrival's inline fire: %+v, want 1 instant at %g", m, ws[2].At)
	}
}

// TestServeTickLoop runs the wall-clock firing loop a -trigger tick
// server starts: with a worker and a task pooled, an instant fires
// without any /instant request, and once Drain has stopped the loops the
// instant count stays fixed across several tick periods.
func TestServeTickLoop(t *testing.T) {
	fw, data := testFramework(t)
	const tick = 2 * time.Millisecond
	srv, ts := testServer(t, fw, serverConfig{
		tick:   tick,
		simNow: func() float64 { return 97 },
	})
	t.Cleanup(func() { _ = srv.Drain() })
	ws, tks, err := trace.Build(data, trace.Params{Arrivals: 1, Seed: 3, Start: 96, Spread: 1, RadiusKm: 25, ValidMin: 4, ValidSpan: 2})
	if err != nil {
		t.Fatal(err)
	}
	if code := send(t, ts.URL+"/v1/default", arrive(ws[0]), nil); code != 200 {
		t.Fatalf("worker arrival: status %d", code)
	}
	if code := send(t, ts.URL+"/v1/default", publish(tks[0]), nil); code != 200 {
		t.Fatalf("task arrival: status %d", code)
	}
	srv.startTickers()

	instants := func() int {
		var m serveapi.Metrics
		if code := do(t, "GET", ts.URL+"/v1/default/metrics", nil, &m); code != 200 {
			t.Fatalf("metrics: status %d", code)
		}
		return m.Totals.Instants
	}
	deadline := time.Now().Add(30 * time.Second)
	for instants() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("tick loop fired no instant within 30s")
		}
		time.Sleep(tick)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	drained := instants()
	time.Sleep(10 * tick)
	if got := instants(); got != drained {
		t.Fatalf("instants grew from %d to %d after Drain stopped the tick loop", drained, got)
	}
}

// TestServeRegionsAreIsolated: two regions hold independent engines —
// ids, pools and instants in one never leak into the other.
func TestServeRegionsAreIsolated(t *testing.T) {
	fw, data := testFramework(t)
	_, ts := testServer(t, fw, serverConfig{
		regions: []string{"east", "west"},
	})
	ws, _, err := trace.Build(data, trace.Params{Arrivals: 3, Seed: 3, Start: 96, Spread: 1, RadiusKm: 25, ValidMin: 4, ValidSpan: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, wa := range ws {
		if code := send(t, ts.URL+"/v1/east", arrive(wa), nil); code != 200 {
			t.Fatal("east arrival failed")
		}
	}
	var east, west serveapi.Metrics
	do(t, "GET", ts.URL+"/v1/east/metrics", nil, &east)
	do(t, "GET", ts.URL+"/v1/west/metrics", nil, &west)
	if east.Online != 3 || west.Online != 0 {
		t.Fatalf("east %d / west %d online, want 3 / 0", east.Online, west.Online)
	}
	// A fresh west arrival mints id 0: id spaces are per-region.
	var got struct {
		WorkerID int `json:"worker_id"`
	}
	send(t, ts.URL+"/v1/west", arrive(ws[0]), &got)
	if got.WorkerID != 0 {
		t.Fatalf("west minted id %d, want 0", got.WorkerID)
	}
}

// TestServeDrainCompletesInFlightInstant is the drain gate: an instant
// that is already inside its critical section when Drain begins must
// complete, and its assignments must land in the drained CSV; events
// arriving after the drain are refused.
func TestServeDrainCompletesInFlightInstant(t *testing.T) {
	fw, data := testFramework(t)
	csvPath := filepath.Join(t.TempDir(), "serve.csv")
	srv, ts := testServer(t, fw, serverConfig{
		csvPath: csvPath,
	})
	ws, tks, err := trace.Build(data, trace.Params{Arrivals: 25, Seed: 3, Start: 96, Spread: 2, RadiusKm: 25, ValidMin: 6, ValidSpan: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, wa := range ws {
		if code := send(t, ts.URL+"/v1/default", arrive(wa), nil); code != 200 {
			t.Fatal("arrival failed")
		}
	}
	for _, ta := range tks {
		if code := send(t, ts.URL+"/v1/default", publish(ta), nil); code != 200 {
			t.Fatal("task failed")
		}
	}

	// Hold the instant in flight: the hook blocks inside the critical
	// section until released, while Drain runs concurrently.
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.testHookFire = func() {
		close(entered)
		<-release
	}
	instantDone := make(chan serveapi.InstantResult, 1)
	go func() {
		var ir serveapi.InstantResult
		do(t, "POST", ts.URL+"/v1/default/instant", serveapi.Instant{At: 99}, &ir)
		instantDone <- ir
	}()
	<-entered
	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain() }()
	// The instant is mid-flight holding the region lock; releasing it
	// must let both the instant and the drain complete.
	close(release)
	ir := <-instantDone
	if err := <-drainDone; err != nil {
		t.Fatal(err)
	}
	if len(ir.Assigned) == 0 {
		t.Fatal("in-flight instant assigned nothing; test pools too sparse")
	}

	// The drained CSV contains exactly the in-flight instant's pairs.
	raw, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if lines[0] != "at,task,worker,user,influence,travel_km" {
		t.Fatalf("CSV header %q", lines[0])
	}
	if len(lines)-1 != len(ir.Assigned) {
		t.Fatalf("%d CSV rows, %d in-flight assignments", len(lines)-1, len(ir.Assigned))
	}
	for _, pr := range ir.Assigned {
		prefix := fmt.Sprintf("99,%d,%d,", pr.Task, pr.Worker)
		found := false
		for _, l := range lines[1:] {
			if strings.HasPrefix(l, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("assignment %+v missing from drained CSV", pr)
		}
	}

	// Post-drain events are refused, and a second drain is a no-op.
	if code := do(t, "POST", ts.URL+"/v1/default/workers", serveapi.Worker{User: 1, Radius: 1}, nil); code != 503 {
		t.Fatalf("post-drain arrival: status %d, want 503", code)
	}
	if code := do(t, "POST", ts.URL+"/v1/default/instant", serveapi.Instant{At: 100}, nil); code != 503 {
		t.Fatalf("post-drain instant: status %d, want 503", code)
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestServeMatchesEngineReplay is the in-process form of the CI serve
// smoke: the same trace replayed once through engine.Replay and once
// through the HTTP endpoints, driven by the same grid's events
// (admissions + explicit instants), must report the same
// willingness-entry count at every instant and drain a byte-identical
// assignment CSV.
func TestServeMatchesEngineReplay(t *testing.T) {
	fw, data := testFramework(t)
	tp := trace.Params{Arrivals: 60, Seed: 13, Start: 96, Spread: 12, RadiusKm: 25, ValidMin: 3, ValidSpan: 3}
	ws, tks, err := trace.Build(data, tp)
	if err != nil {
		t.Fatal(err)
	}
	g := engine.Grid{Start: 96, Step: 1, Horizon: 14}

	e, err := engine.New(fw, engine.Config{Algorithm: assign.IA, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	instants, err := e.Replay(g, ws, tks)
	if err != nil {
		t.Fatal(err)
	}
	if e.Totals().Assigned == 0 {
		t.Fatal("replay assigned nothing; trace too sparse to gate anything")
	}
	want := engine.AssignCSV(instants)

	csvPath := filepath.Join(t.TempDir(), "serve.csv")
	srv, ts := testServer(t, fw, serverConfig{
		csvPath: csvPath,
	})
	i, wilTotal := 0, 0
	err = g.Events(ws, tks, func(ev engine.Event) error {
		var ir serveapi.InstantResult
		if code := send(t, ts.URL+"/v1/default", ev, &ir); code != 200 {
			return fmt.Errorf("%v failed: status %d", ev.Kind, code)
		}
		if ev.Kind != engine.InstantFire {
			return nil
		}
		if want := instants[i].WilEntries; ir.WilEntries != want {
			return fmt.Errorf("instant %d: served wil_entries %d, replay computed %d", i, ir.WilEntries, want)
		}
		wilTotal += ir.WilEntries
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if wilTotal == 0 {
		t.Fatal("no instant computed willingness entries; the wil_entries check is never exercised")
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("served assignment CSV diverged from the engine replay")
	}
}
