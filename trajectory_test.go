package dita_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// trajectoryRecord is one entry of BENCH_trajectory.json: a performance
// change's claim, how it was measured, and the benchmark's result line
// at the commit before and after the change.
type trajectoryRecord struct {
	PR    int `json:"pr"`
	Claim struct {
		Metric   string `json:"metric"`
		Workload string `json:"workload"`
	} `json:"claim"`
	Command    string         `json:"command"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Seed       uint64         `json:"seed"`
	Before     trajectorySide `json:"before"`
	After      trajectorySide `json:"after"`
	// Note is free text, e.g. the host the pair ran on.
	Note string `json:"note,omitempty"`
}

// trajectorySide is one measured commit and its verbatim result line.
type trajectorySide struct {
	Commit string `json:"commit"`
	Result string `json:"result"`
}

// benchResult is the part of a benchmark/run.sh result line a record is
// checked against.
type benchResult struct {
	Correct   *bool `json:"correct"`
	Attempted int   `json:"attempted"`
	Failed    int   `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// strictDecode decodes raw into v, refusing unknown fields and anything
// after the one JSON value.
func strictDecode(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}

// TestBenchTrajectoryFormat parses BENCH_trajectory.json against its
// record format and against BENCHMARK.json, so the checked-in
// performance record cannot rot: every claim names a declared workload
// and end-to-end metric, the command is the benchmark's own with the
// record's workload and seed, and both sides carry a commit and a
// correct result line that measured the claimed metric in its unit.
func TestBenchTrajectoryFormat(t *testing.T) {
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	workloads := map[string]bool{}
	for _, w := range decl.Workloads {
		workloads[w.Name] = true
	}
	units := map[string]string{}
	for _, m := range decl.EndToEnd {
		units[m.Name] = m.Unit
	}

	raw, err = os.ReadFile("BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	var records []trajectoryRecord
	if err := strictDecode(raw, &records); err != nil {
		t.Fatalf("BENCH_trajectory.json: %v", err)
	}
	if len(records) == 0 {
		t.Fatal("BENCH_trajectory.json holds no records")
	}
	commit := regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	lastPR := 0
	for i, r := range records {
		where := fmt.Sprintf("record %d (PR %d)", i, r.PR)
		if r.PR <= lastPR {
			t.Errorf("%s: PR numbers must be positive and ascending", where)
		}
		lastPR = r.PR
		if !workloads[r.Claim.Workload] {
			t.Errorf("%s: workload %q is not declared in BENCHMARK.json", where, r.Claim.Workload)
		}
		unit, ok := units[r.Claim.Metric]
		if !ok {
			t.Errorf("%s: metric %q is not an end-to-end metric of BENCHMARK.json", where, r.Claim.Metric)
		}
		args := strings.Fields(r.Command)
		if len(args) < 2 || args[0] != "bash" || args[1] != "benchmark/run.sh" {
			t.Errorf("%s: command %q is not a benchmark/run.sh run", where, r.Command)
		}
		for _, want := range []string{"-workload " + r.Claim.Workload, fmt.Sprintf("-seed %d", r.Seed)} {
			if !strings.Contains(" "+r.Command+" ", " "+want+" ") {
				t.Errorf("%s: command %q lacks %q", where, r.Command, want)
			}
		}
		if !strings.HasPrefix(r.GoVersion, "go") {
			t.Errorf("%s: go_version %q", where, r.GoVersion)
		}
		if r.GOMAXPROCS <= 0 {
			t.Errorf("%s: gomaxprocs %d", where, r.GOMAXPROCS)
		}
		if r.Before.Commit == r.After.Commit {
			t.Errorf("%s: before and after are the same commit", where)
		}
		for _, side := range []struct {
			name string
			s    trajectorySide
		}{{"before", r.Before}, {"after", r.After}} {
			if !commit.MatchString(side.s.Commit) {
				t.Errorf("%s %s: commit %q is not a hex commit id", where, side.name, side.s.Commit)
			}
			if strings.ContainsAny(side.s.Result, "\r\n") {
				t.Errorf("%s %s: result is not one line", where, side.name)
			}
			var res benchResult
			if err := json.Unmarshal([]byte(side.s.Result), &res); err != nil {
				t.Errorf("%s %s: result line: %v", where, side.name, err)
				continue
			}
			if res.Correct == nil || !*res.Correct {
				t.Errorf("%s %s: result is not correct:true", where, side.name)
			}
			if res.Attempted <= 0 || res.Failed < 0 || res.Failed > res.Attempted {
				t.Errorf("%s %s: attempted %d, failed %d", where, side.name, res.Attempted, res.Failed)
			}
			m, ok := res.Metrics[r.Claim.Metric]
			if !ok || m.Value == nil {
				t.Errorf("%s %s: result has no %s value", where, side.name, r.Claim.Metric)
			} else if m.Unit != unit {
				t.Errorf("%s %s: %s unit %q, BENCHMARK.json says %q", where, side.name, r.Claim.Metric, m.Unit, unit)
			}
		}
	}
}
