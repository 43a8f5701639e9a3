package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"testing"

	"dita/internal/engine"
	"dita/internal/geo"
	"dita/internal/model"
)

// recorder is a stand-in dita-serve region: it answers every request
// with 200 and an empty JSON object, except requests to failPath, and
// records each as "METHOD path body".
type recorder struct {
	mu       sync.Mutex
	reqs     []string
	failPath string
}

func (r *recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	body, _ := io.ReadAll(req.Body)
	r.mu.Lock()
	r.reqs = append(r.reqs, strings.TrimSpace(req.Method+" "+req.URL.Path+" "+string(body)))
	r.mu.Unlock()
	if req.URL.Path == r.failPath {
		http.Error(w, `{"error":"bad payload"}`, http.StatusBadRequest)
		return
	}
	_, _ = io.WriteString(w, "{}")
}

// clientTrace is a two-worker, two-task trace whose arrivals straddle a
// three-instant grid at 96, 96.5 and 97 hours.
func clientTrace() (engine.Grid, []engine.WorkerArrival, []engine.TaskArrival) {
	g := engine.Grid{Start: 96, Step: 0.5, Horizon: 1}
	ws := []engine.WorkerArrival{
		{User: 3, Loc: geo.Point{X: 1.5, Y: 2}, Radius: 25, At: 96},
		{User: 8, Loc: geo.Point{X: -4, Y: 0.25}, Radius: 10, At: 96.75},
	}
	ts := []engine.TaskArrival{
		{Loc: geo.Point{X: 2, Y: 3}, Publish: 96.25, Valid: 5, Categories: []model.CategoryID{1, 4}, Venue: 9},
		{Loc: geo.Point{X: 0, Y: -1}, Publish: 96.75, Valid: 6.5, Categories: []model.CategoryID{0}, Venue: 2},
	}
	return g, ws, ts
}

const (
	wantW0 = `POST /v1/east/workers {"user":3,"x":1.5,"y":2,"radius":25,"at":96}`
	wantW1 = `POST /v1/east/workers {"user":8,"x":-4,"y":0.25,"radius":10,"at":96.75}`
	wantT0 = `POST /v1/east/tasks {"x":2,"y":3,"publish":96.25,"valid":5,"categories":[1,4],"venue":9}`
	wantT1 = `POST /v1/east/tasks {"x":0,"y":-1,"publish":96.75,"valid":6.5,"categories":[0],"venue":2}`
)

func TestServeClientGridMode(t *testing.T) {
	rec := &recorder{}
	srv := httptest.NewServer(rec)
	defer srv.Close()
	g, ws, ts := clientTrace()
	if err := runServe(srv.URL+"/v1/east/", 0, g, ws, ts); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"GET /v1/east/metrics",
		wantW0,
		`POST /v1/east/instant {"at":96}`,
		wantT0,
		`POST /v1/east/instant {"at":96.5}`,
		wantW1, wantT1,
		`POST /v1/east/instant {"at":97}`,
		"GET /v1/east/metrics",
	}
	if !slices.Equal(rec.reqs, want) {
		t.Fatalf("requests:\n%s\nwant:\n%s", strings.Join(rec.reqs, "\n"), strings.Join(want, "\n"))
	}
}

func TestServeClientPacedMode(t *testing.T) {
	rec := &recorder{}
	srv := httptest.NewServer(rec)
	defer srv.Close()
	g, ws, ts := clientTrace()
	// At 1e9× trace time the whole 0.75-hour trace is due within 3 µs.
	if err := runServe(srv.URL+"/v1/east", 1e9, g, ws, ts); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"GET /v1/east/metrics",
		wantW0, wantT0, wantW1, wantT1,
		"GET /v1/east/metrics",
	}
	if !slices.Equal(rec.reqs, want) {
		t.Fatalf("requests:\n%s\nwant:\n%s", strings.Join(rec.reqs, "\n"), strings.Join(want, "\n"))
	}
}

func TestServeClientStopsOnError(t *testing.T) {
	rec := &recorder{failPath: "/v1/east/tasks"}
	srv := httptest.NewServer(rec)
	defer srv.Close()
	g, ws, ts := clientTrace()
	err := runServe(srv.URL+"/v1/east", 0, g, ws, ts)
	if err == nil || !strings.Contains(err.Error(), "/v1/east/tasks") || !strings.Contains(err.Error(), "400") {
		t.Fatalf("error %v, want the failed POST's path and status", err)
	}
	if n := len(rec.reqs); rec.reqs[n-1] != wantT0 {
		t.Fatalf("replay went on after the failed POST: last request %q", rec.reqs[n-1])
	}

	rec = &recorder{failPath: "/v1/west/metrics"}
	srv2 := httptest.NewServer(rec)
	defer srv2.Close()
	err = runServe(srv2.URL+"/v1/west", 0, g, ws, ts)
	if err == nil || !strings.Contains(err.Error(), "/v1/west/metrics") {
		t.Fatalf("error %v, want the failed health check's path", err)
	}
	if len(rec.reqs) != 1 {
		t.Fatalf("%d requests after a failed health check, want 1", len(rec.reqs))
	}
}

// TestServeRefusesServerOwnedFlags runs main in a child process with
// -stream -serve and one flag the server owns, set explicitly to its
// default, and requires the run to stop before it generates a dataset,
// naming the flag. A client-side flag alone passes that check and fails
// only at the reachability check of an address nothing listens on.
func TestServeRefusesServerOwnedFlags(t *testing.T) {
	if args := os.Getenv("DITA_SIM_HELPER_ARGS"); args != "" {
		os.Args = append([]string{"dita-sim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String() + "/v1/default"
	ln.Close()
	run := func(extra string) string {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run", "^TestServeRefusesServerOwnedFlags$")
		cmd.Env = append(os.Environ(), "DITA_SIM_HELPER_ARGS=-stream -serve "+closed+" "+extra)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s: run succeeded, want a refusal:\n%s", extra, out)
		}
		return string(out)
	}
	for _, f := range []string{
		"-alg IA", "-mask IA", "-seed 1", "-parallel 0",
		"-framework fw.json", "-train-out fw.json", "-assign-csv out.csv",
	} {
		out := run(f)
		name := strings.Fields(f)[0]
		if !strings.Contains(out, "-serve: the server owns") || !strings.Contains(out, name+" do not apply") || strings.Contains(out, "generated") {
			t.Errorf("%s: want a refusal naming %s before any dataset is generated, got:\n%s", f, name, out)
		}
	}
	if out := run("-trace-seed 2"); strings.Contains(out, "the server owns") || !strings.Contains(out, "server not reachable") {
		t.Errorf("-trace-seed: want only the reachability failure, got:\n%s", out)
	}
}

// TestStreamRefusesBadTraceBeforeTraining runs main in a child process
// with -stream and a NaN -spread, and requires the run to fail naming
// the spread before it trains a framework: the trace is built right
// after the dataset, not after seconds of training.
func TestStreamRefusesBadTraceBeforeTraining(t *testing.T) {
	if args := os.Getenv("DITA_SIM_HELPER_ARGS"); args != "" {
		os.Args = append([]string{"dita-sim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestStreamRefusesBadTraceBeforeTraining$")
	cmd.Env = append(os.Environ(), "DITA_SIM_HELPER_ARGS=-stream -spread NaN")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("run succeeded, want a refusal:\n%s", out)
	}
	if !strings.Contains(string(out), "spread NaN") || strings.Contains(string(out), "framework trained") {
		t.Errorf("want a refusal naming the spread before any training, got:\n%s", out)
	}
}
