package serveapi

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dita/internal/engine"
	"dita/internal/geo"
	"dita/internal/model"
)

// TestEventRoundTrip: every event kind encodes to its route's method
// and path and decodes back to the same event, and the bodies are the
// exact bytes the protocol documents.
func TestEventRoundTrip(t *testing.T) {
	w := engine.WorkerArrival{User: 3, Loc: geo.Point{X: 1.5, Y: 2}, Radius: 25, At: 96}
	tk := engine.TaskArrival{Loc: geo.Point{X: 2, Y: 3}, Publish: 96.25, Valid: 5, Categories: []model.CategoryID{1, 4}, Venue: 9}
	cases := []struct {
		ev                 engine.Event
		method, path, body string
		id                 string
	}{
		{engine.Event{Kind: engine.WorkerArrive, At: w.At, Worker: w}, "POST", "/workers",
			`{"user":3,"x":1.5,"y":2,"radius":25,"at":96}`, ""},
		{engine.Event{Kind: engine.TaskArrive, At: tk.Publish, Task: tk}, "POST", "/tasks",
			`{"x":2,"y":3,"publish":96.25,"valid":5,"categories":[1,4],"venue":9}`, ""},
		{engine.Event{Kind: engine.InstantFire, At: 97}, "POST", "/instant", `{"at":97}`, ""},
		{engine.Event{Kind: engine.WorkerDepart, WorkerID: 12}, "DELETE", "/workers/12", "", "12"},
		{engine.Event{Kind: engine.TaskExpire, TaskID: 7}, "DELETE", "/tasks/7", "", "7"},
	}
	for _, c := range cases {
		method, path, body, err := Encode(c.ev)
		if err != nil {
			t.Fatalf("%v: %v", c.ev.Kind, err)
		}
		if method != c.method || path != c.path || string(body) != c.body {
			t.Errorf("%v: encoded %s %s %s, want %s %s %s", c.ev.Kind, method, path, body, c.method, c.path, c.body)
		}
		back, err := Decode(c.ev.Kind, bytes.NewReader(body), c.id)
		if err != nil {
			t.Fatalf("%v: decode: %v", c.ev.Kind, err)
		}
		if !reflect.DeepEqual(back, c.ev) {
			t.Errorf("%v: round trip %+v, want %+v", c.ev.Kind, back, c.ev)
		}
	}
	// A task without categories still sends an empty list.
	_, _, body, _ := Encode(engine.Event{Kind: engine.TaskArrive, Task: engine.TaskArrival{Valid: 1}})
	if want := `{"x":0,"y":0,"publish":0,"valid":1,"categories":[],"venue":0}`; string(body) != want {
		t.Errorf("task without categories: %s, want %s", body, want)
	}
	if _, _, _, err := Encode(engine.Event{Kind: 0}); err == nil {
		t.Error("an event kind without an endpoint encoded")
	}
}

// TestDecodeRejects covers what the server's malformed-payload test
// does not reach: an empty instant body, an id past int32 and a kind
// without an endpoint.
func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name     string
		kind     engine.EventKind
		body, id string
	}{
		{"empty body", engine.InstantFire, ``, ""},
		{"id past int32", engine.TaskExpire, "", "2147483648"},
		{"no endpoint", 0, `{}`, ""},
	}
	for _, c := range cases {
		if _, err := Decode(c.kind, strings.NewReader(c.body), c.id); err == nil {
			t.Errorf("%s: decoded", c.name)
		}
	}
}

// TestReplyShapes pins the 200 bodies, which other clients parse.
func TestReplyShapes(t *testing.T) {
	ir := &engine.InstantResult{At: 97, OnlineWorkers: 2, Assigned: []engine.AssignedPair{{Task: 1, Worker: 2, User: 3}}}
	cases := []struct {
		ev   engine.Event
		ap   engine.Applied
		want string
	}{
		{engine.Event{Kind: engine.WorkerArrive}, engine.Applied{WorkerID: 0}, `{"worker_id":0}`},
		{engine.Event{Kind: engine.TaskArrive}, engine.Applied{TaskID: 4, Instant: ir},
			`{"instant":{"at":97,"online":2,"open":0,"expired":0,"assigned":[{"task":1,"worker":2,"user":3,"influence":0,"travel_km":0}],"wil_entries":0,"prepare_ms":0,"pair_maint_ms":0,"assign_ms":0},"task_id":4}`},
		{engine.Event{Kind: engine.WorkerDepart, WorkerID: 5}, engine.Applied{}, `{"departed":5}`},
		{engine.Event{Kind: engine.TaskExpire, TaskID: 6}, engine.Applied{}, `{"withdrawn":6}`},
		{engine.Event{Kind: engine.InstantFire, At: 97}, engine.Applied{Instant: &engine.InstantResult{At: 97}},
			`{"at":97,"online":0,"open":0,"expired":0,"assigned":null,"wil_entries":0,"prepare_ms":0,"pair_maint_ms":0,"assign_ms":0}`},
	}
	for _, c := range cases {
		got, err := json.Marshal(Reply(c.ev, c.ap))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%v reply %s, want %s", c.ev.Kind, got, c.want)
		}
	}
}
