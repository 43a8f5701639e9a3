package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dita/internal/assign"
	"dita/internal/engine"
)

// serveRecorded sends one request straight through Server.ServeHTTP and
// returns the status code. Without a net/http server in between, a panic
// in a handler propagates to the caller instead of being recovered per
// connection.
func serveRecorded(srv *Server, method, path, body string) int {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code
}

// FuzzServeArrivals drives the serve boundary with arbitrary worker and
// task bodies. Each arrival must answer 200 or 400 (never a 500 or a
// panic); an instant over whatever was admitted must then answer 200,
// and the region must still serve GET /metrics, which it could not if
// the instant had left its lock held. Plain `go test` runs the seeds;
// `go test -fuzz FuzzServeArrivals ./cmd/dita-serve` explores further.
func FuzzServeArrivals(f *testing.F) {
	fw, _ := testFramework(f)
	f.Add(`{"user":3,"x":1,"y":1,"radius":25}`, `{"x":1,"y":1,"valid":3,"categories":[0]}`)
	f.Add(`{"user":1073741824,"x":1,"y":1,"radius":25}`, `{"x":1,"y":1,"valid":3,"categories":[0]}`)
	f.Add(`{"user":3,"x":1,"y":1,"radius":25}`, `{"x":1,"y":1,"valid":3,"categories":[1073741824]}`)
	f.Add(`{"user":-1,"radius":1e308}`, `{"x":-1e308,"y":1e308,"publish":-1e308,"valid":1e308,"categories":[-1]}`)
	f.Fuzz(func(t *testing.T, worker, task string) {
		srv, err := newServer(fw, serverConfig{
			regions: []string{"default"},
			engine: engine.Config{
				Algorithm: assign.IA, Seed: 7, Parallelism: 2,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range []struct{ path, body string }{
			{"/v1/default/workers", worker},
			{"/v1/default/tasks", task},
		} {
			if code := serveRecorded(srv, "POST", req.path, req.body); code != http.StatusOK && code != http.StatusBadRequest {
				t.Fatalf("POST %s %q: status %d, want 200 or 400", req.path, req.body, code)
			}
		}
		if code := serveRecorded(srv, "POST", "/v1/default/instant", `{"at":0}`); code != http.StatusOK {
			t.Fatalf("instant after arrivals %q, %q: status %d", worker, task, code)
		}
		if code := serveRecorded(srv, "GET", "/v1/default/metrics", ""); code != http.StatusOK {
			t.Fatalf("metrics after arrivals %q, %q: status %d", worker, task, code)
		}
	})
}
