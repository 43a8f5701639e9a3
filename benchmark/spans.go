package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dita/internal/atomicio"
)

// span is one traced interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one instant, request or job
// share a Group; Parent names the span that caused this one (0 for a
// root). Times are microseconds on the benchmark clock.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Group   string  `json:"group"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the timed pass carries no tracing cost beyond a nil check.
type tracer struct {
	spans []span
}

func (t *tracer) add(group, name string, parent int, start, end time.Duration) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Group: group, Name: name,
		StartUs: float64(start) / float64(time.Microsecond),
		EndUs:   float64(end) / float64(time.Microsecond),
	})
	return id
}

// recorded returns the spans kept so far; nil for a nil tracer.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	return t.spans
}

// addPhases records an instant's phase durations as back-to-back child
// spans of parent starting at start. The engine reports how long each
// phase took, not when it began, so the layout within the parent is
// pipeline order rather than measured offsets; the parent's self time
// (its duration minus the children) is exact either way.
func (t *tracer) addPhases(group string, parent int, start time.Duration, names []string, ds []time.Duration) {
	at := start
	for i, d := range ds {
		t.add(group, names[i], parent, at, at+d)
		at += d
	}
}

// workloadSpans is one workload's share of spans.json.
type workloadSpans struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

func writeSpans(dir string, all []workloadSpans) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return atomicio.WriteFile(filepath.Join(dir, "spans.json"), append(data, '\n'), 0o644)
}
