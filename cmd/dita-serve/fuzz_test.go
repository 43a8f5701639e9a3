package main

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
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

// canonical reports whether ServeMux routes the unescaped path p as it
// is, rather than redirecting it to its clean form: path.Clean, keeping
// a trailing slash.
func canonical(p string) bool {
	c := path.Clean(p)
	if strings.HasSuffix(p, "/") && c != "/" {
		c += "/"
	}
	return c == p
}

// FuzzServeArrivals drives every state-changing endpoint with arbitrary
// input: a worker body, a task body, a worker id to depart, a task id to
// withdraw and an instant body. Each request must answer 200, 400 or
// 404 (never a 500 or a panic). The one exception is an id that makes
// the path non-canonical, such as "." or "..": ServeMux answers it with
// a 301 to the clean path before any handler runs. A fixed instant over
// whatever was admitted must then answer 200, and the region must still
// serve GET /metrics, which it could not if an instant had left its
// lock held.
// Plain `go test` runs the seeds; `go test -fuzz FuzzServeArrivals
// ./cmd/dita-serve` explores further.
func FuzzServeArrivals(f *testing.F) {
	fw, _ := testFramework(f)
	f.Add(`{"user":3,"x":1,"y":1,"radius":25}`, `{"x":1,"y":1,"valid":3,"categories":[0]}`, "0", "0", `{"at":0}`)
	f.Add(`{"user":3,"x":1,"y":1,"radius":25}`, `{"x":1,"y":1,"valid":3,"categories":[0]}`, "1", "-1", `{"at":1e308}`)
	f.Add(`{"user":1073741824,"x":1,"y":1,"radius":25}`, `{"x":1,"y":1,"valid":3,"categories":[0]}`, "abc", "2147483648", `{"at":"noon"}`)
	f.Add(`{"user":3,"x":1,"y":1,"radius":25}`, `{"x":1,"y":1,"valid":3,"categories":[1073741824]}`, "", "a/b", ``)
	f.Add(`{"user":-1,"radius":1e308}`, `{"x":-1e308,"y":1e308,"publish":-1e308,"valid":1e308,"categories":[-1]}`, "0", "0", `{"at":-1e308}`)
	f.Add(`{"user":3,"radius":-1}`, `{"x":1,"y":1,"valid":0,"categories":[0]}`, "0", "0", `{"at":0}{}`)
	f.Add(`{}`, `{}`, "..", ".", `{"at":0}`)
	f.Fuzz(func(t *testing.T, worker, task, workerID, taskID, instant string) {
		srv, err := newServer(fw, serverConfig{
			regions: []string{"default"},
			engine: engine.Config{
				Algorithm: assign.IA, Seed: 7, Parallelism: 2, Batch: 2,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range []struct{ method, path, id, body string }{
			{"POST", "/v1/default/workers", "", worker},
			{"POST", "/v1/default/tasks", "", task},
			{"DELETE", "/v1/default/workers/", workerID, ""},
			{"DELETE", "/v1/default/tasks/", taskID, ""},
			{"POST", "/v1/default/instant", "", instant},
		} {
			switch code := serveRecorded(srv, req.method, req.path+url.PathEscape(req.id), req.body); {
			case code == http.StatusOK, code == http.StatusBadRequest, code == http.StatusNotFound:
			case code == http.StatusMovedPermanently && !canonical(req.path+req.id):
			default:
				t.Fatalf("%s %s%s %q: status %d, want 200, 400 or 404", req.method, req.path, req.id, req.body, code)
			}
		}
		if code := serveRecorded(srv, "POST", "/v1/default/instant", `{"at":0}`); code != http.StatusOK {
			t.Fatalf("instant after %q, %q, %q, %q, %q: status %d", worker, task, workerID, taskID, instant, code)
		}
		if code := serveRecorded(srv, "GET", "/v1/default/metrics", ""); code != http.StatusOK {
			t.Fatalf("metrics after %q, %q, %q, %q, %q: status %d", worker, task, workerID, taskID, instant, code)
		}
	})
}
