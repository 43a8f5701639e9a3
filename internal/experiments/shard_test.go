package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"dita/internal/core"
)

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"0/1":     {Index: 0, Count: 1},
		"2/5":     {Index: 2, Count: 5},
		" 1 / 3 ": {Index: 1, Count: 3},
	}
	for spec, want := range good {
		got, err := ParseShard(spec)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	for _, spec := range []string{"", "3", "a/b", "1/b", "-1/2", "2/2", "0/0", "0/-1"} {
		if s, err := ParseShard(spec); err == nil {
			t.Errorf("ParseShard(%q) accepted as %v", spec, s)
		}
	}
}

func TestShardValidate(t *testing.T) {
	for _, s := range []Shard{{}, {Index: 0, Count: 1}, {Index: 4, Count: 5}} {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", s, err)
		}
	}
	for _, s := range []Shard{{Index: 1, Count: 0}, {Index: -1, Count: 2}, {Index: 2, Count: 2}, {Index: 0, Count: -3}} {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}
	if got := (Shard{}).String(); got != "0/1" {
		t.Errorf("zero shard renders as %q, want 0/1", got)
	}
}

// runShardSet evaluates one figure under every Shard{i, n}, pushing
// each worker's output through the JSON artifact (the exact bytes a
// cross-process run exchanges) before returning the set.
func runShardSet(t *testing.T, r *Runner, fig int, sw Sweeps, n int) []*ShardResult {
	t.Helper()
	var shards []*ShardResult
	for i := 0; i < n; i++ {
		run := *r
		run.P.Shard = Shard{Index: i, Count: n}
		raw, err := run.RunFigureRaw(fig, sw)
		if err != nil {
			t.Fatalf("shard %d/%d of figure %d: %v", i, n, fig, err)
		}
		sr := &ShardResult{Shard: run.P.Shard, Seed: run.P.Seed, Figures: []*SweepRaw{raw}}
		back := cloneShard(t, sr)
		if !reflect.DeepEqual(sr, back) {
			t.Fatalf("shard %d/%d artifact did not survive its JSON round-trip", i, n)
		}
		shards = append(shards, back)
	}
	return shards
}

// csvZeroCPU renders a result's CSV with the measured wall-clock column
// zeroed — the one column outside the cross-process determinism
// contract.
func csvZeroCPU(t *testing.T, res *Result) []byte {
	t.Helper()
	c := *res
	c.Rows = stripCPU(res)
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardMergeMatchesUnsharded is the tentpole's acceptance gate: for
// an ablation and a comparison figure, every shard partition of the job
// grid — run worker by worker through the JSON artifact — must merge to
// rows DeepEqual to the unsharded run (and byte-identical CSV), with
// the measured CPU column as the only exclusion. Count 5 over the
// 4-job grid (2 sweep values × 2 days) exercises a shard that owns zero
// jobs.
func TestShardMergeMatchesUnsharded(t *testing.T) {
	r := testRunner(t)
	sw := Sweeps{Tasks: []int{30, 45}}
	for _, fig := range []int{5, 9} {
		want, err := r.RunFigure(fig, sw)
		if err != nil {
			t.Fatal(err)
		}
		wantRows := stripCPU(want)
		for _, n := range []int{1, 2, 3, 5} {
			shards := runShardSet(t, r, fig, sw, n)
			if n == 5 {
				zeroJobs := 0
				for _, sh := range shards {
					if len(sh.Figures[0].Jobs) == 0 {
						zeroJobs++
					}
				}
				if zeroJobs == 0 {
					t.Errorf("figure %d: no zero-job shard at count 5 over a 4-job grid", fig)
				}
			}
			merged, err := MergeRaw(shards)
			if err != nil {
				t.Fatalf("figure %d sharded %d ways: merge: %v", fig, n, err)
			}
			if len(merged) != 1 {
				t.Fatalf("figure %d sharded %d ways: merged %d figures, want 1", fig, n, len(merged))
			}
			got, err := merged[0].Reduce()
			if err != nil {
				t.Fatalf("figure %d sharded %d ways: reduce: %v", fig, n, err)
			}
			if got.Figure != want.Figure || got.Dataset != want.Dataset || got.XLabel != want.XLabel {
				t.Errorf("figure %d sharded %d ways: labels %q %q %q, want %q %q %q",
					fig, n, got.Figure, got.Dataset, got.XLabel, want.Figure, want.Dataset, want.XLabel)
			}
			if !reflect.DeepEqual(stripCPU(got), wantRows) {
				t.Errorf("figure %d sharded %d ways: merged rows diverge from the unsharded run", fig, n)
			}
			if !bytes.Equal(csvZeroCPU(t, got), csvZeroCPU(t, want)) {
				t.Errorf("figure %d sharded %d ways: merged CSV is not byte-identical to the unsharded run", fig, n)
			}
		}
	}
}

// cloneShard deep-copies an artifact through its own wire format.
func cloneShard(t *testing.T, sr *ShardResult) *ShardResult {
	t.Helper()
	data, err := sr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeShardResult(data)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestMergeDetectsBrokenShardSets(t *testing.T) {
	r := testRunner(t)
	sw := Sweeps{Tasks: []int{30, 45}}
	shards := runShardSet(t, r, 5, sw, 3)

	if _, err := MergeRaw(nil); err == nil {
		t.Error("merge of zero artifacts accepted")
	}
	// A malformed leading shard must error like any other, not panic in
	// the coverage-slice allocation.
	if _, err := MergeRaw([]*ShardResult{{Shard: Shard{Index: 0, Count: -2}}}); err == nil || !strings.Contains(err.Error(), "count") {
		t.Errorf("negative shard count: err = %v, want a count error", err)
	}
	// Nor may a huge count, which a sealed artifact can carry: sizing the
	// coverage slices by it used to panic with "makeslice: len out of
	// range" before any artifact was checked against it.
	if _, err := MergeRaw([]*ShardResult{{Shard: Shard{Index: 0, Count: math.MaxInt}}}); err == nil || !strings.Contains(err.Error(), "count") {
		t.Errorf("shard count MaxInt: err = %v, want a count error", err)
	}
	if _, err := MergeRaw(shards[:2]); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("merge of 2 of 3 shards: err = %v, want a missing-shard error", err)
	}
	dup := append(append([]*ShardResult(nil), shards...), shards[1])
	if _, err := MergeRaw(dup); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate shard: err = %v, want a duplicate error", err)
	}

	badSeed := cloneShard(t, shards[0])
	badSeed.Seed++
	if _, err := MergeRaw([]*ShardResult{badSeed, shards[1], shards[2]}); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("seed mismatch: err = %v, want a seed error", err)
	}

	twoWay := runShardSet(t, r, 5, sw, 2)
	if _, err := MergeRaw([]*ShardResult{shards[0], twoWay[1]}); err == nil || !strings.Contains(err.Error(), "count") {
		t.Errorf("mixed shard counts: err = %v, want a count error", err)
	}

	overlap := cloneShard(t, shards[0])
	overlap.Figures[0].Jobs = append(overlap.Figures[0].Jobs, shards[1].Figures[0].Jobs[0])
	if _, err := MergeRaw([]*ShardResult{overlap, shards[1], shards[2]}); err == nil || !strings.Contains(err.Error(), "owned by shard") {
		t.Errorf("overlapping jobs: err = %v, want an ownership error", err)
	}

	lacking := cloneShard(t, shards[2])
	lacking.Figures = nil
	if _, err := MergeRaw([]*ShardResult{shards[0], shards[1], lacking}); err == nil || !strings.Contains(err.Error(), "lacks") {
		t.Errorf("shard without the figure: err = %v, want a lacks-figure error", err)
	}
}

// TestShardedRunRefusesToReduce: RunFigure under a real shard
// holds a partial grid, and partial grids must never average — the old
// accumulator would have fabricated all-zero rows for the missing
// cells.
func TestShardedRunRefusesToReduce(t *testing.T) {
	r := testRunner(t)
	run := *r
	run.P.Shard = Shard{Index: 0, Count: 2}
	if _, err := run.RunFigure(5, Sweeps{Tasks: []int{40}}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("sharded figure method reduced a partial grid: err = %v", err)
	}
	run.P.Shard = Shard{Index: 2, Count: 2}
	if _, err := run.RunFigure(5, Sweeps{Tasks: []int{40}}); err == nil {
		t.Error("invalid shard spec accepted by the sweep")
	}
}

func TestReduceValidatesGrid(t *testing.T) {
	m := func(alg string) []core.Metrics { return []core.Metrics{{Algorithm: alg, Assigned: 1}} }
	base := func() *SweepRaw {
		return &SweepRaw{
			Fig: 5, Figure: "Fig. 5", Dataset: "BK", XLabel: "|S|",
			Series: []string{"IA"}, Xs: []float64{1, 2}, Days: []int{3, 4},
		}
	}

	noDays := base()
	noDays.Days = nil
	if _, err := noDays.Reduce(); err == nil || !strings.Contains(err.Error(), "no evaluation days") {
		t.Errorf("no-days grid: err = %v", err)
	}

	dup := base()
	dup.Jobs = []JobMetrics{
		{X: 1, Day: 3, Metrics: m("IA")}, {X: 1, Day: 3, Metrics: m("IA")},
	}
	if _, err := dup.Reduce(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate job: err = %v", err)
	}

	arity := base()
	arity.Jobs = []JobMetrics{{X: 1, Day: 3, Metrics: nil}}
	if _, err := arity.Reduce(); err == nil || !strings.Contains(err.Error(), "series") {
		t.Errorf("wrong metrics arity: err = %v", err)
	}

	strayX := base()
	strayX.Jobs = []JobMetrics{{X: 9, Day: 3, Metrics: m("IA")}}
	if _, err := strayX.Reduce(); err == nil || !strings.Contains(err.Error(), "sweep value") {
		t.Errorf("stray x: err = %v", err)
	}

	strayDay := base()
	strayDay.Jobs = []JobMetrics{{X: 1, Day: 9, Metrics: m("IA")}}
	if _, err := strayDay.Reduce(); err == nil || !strings.Contains(err.Error(), "evaluation day") {
		t.Errorf("stray day: err = %v", err)
	}

	complete := base()
	complete.Jobs = []JobMetrics{
		{X: 1, Day: 3, Metrics: m("IA")}, {X: 1, Day: 4, Metrics: m("IA")},
		{X: 2, Day: 3, Metrics: m("IA")}, {X: 2, Day: 4, Metrics: m("IA")},
	}
	res, err := complete.Reduce()
	if err != nil {
		t.Fatalf("complete grid refused: %v", err)
	}
	if len(res.Rows) != 2 || res.Rows[0].Assigned != 1 {
		t.Errorf("complete grid reduced to %+v", res.Rows)
	}
}

// FuzzMergeShardArtifact drives the merge coordinator's whole input
// path over arbitrary artifact contents: the bytes are resealed with
// Encode, so the checksum holds and the fuzzer reaches decoding,
// merging and reduction rather than stopping at the seal, which anyone
// can recompute. Any outcome but a panic is acceptable.
func FuzzMergeShardArtifact(f *testing.F) {
	m := []core.Metrics{{Algorithm: "IA", Assigned: 1, AI: 0.5}}
	valid := &ShardResult{Shard: Shard{Index: 0, Count: 1}, Seed: 3, Figures: []*SweepRaw{{
		Fig: 5, Figure: "Fig. 5", Dataset: "BK", XLabel: "|S|",
		Series: []string{"IA"}, Xs: []float64{1, 2}, Days: []int{3},
		Jobs: []JobMetrics{{X: 1, Day: 3, Metrics: m}, {X: 2, Day: 3, Metrics: m}},
	}}}
	for _, sr := range []*ShardResult{valid, {Shard: Shard{Index: 0, Count: math.MaxInt}}} {
		data, err := sr.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var sr ShardResult
		if json.Unmarshal(raw, &sr) != nil {
			return
		}
		data, err := sr.Encode()
		if err != nil {
			return
		}
		back, err := decodeShardResult(data)
		if err != nil {
			return
		}
		raws, err := MergeRaw([]*ShardResult{back})
		if err != nil {
			return
		}
		for _, r := range raws {
			r.Reduce()
		}
	})
}
