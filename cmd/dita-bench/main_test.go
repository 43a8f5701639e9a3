package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"dita/internal/dataset"
	"dita/internal/experiments"
)

func TestBackoffDelay(t *testing.T) {
	if d := backoffDelay(0, 3, 1, 0); d != 0 {
		t.Errorf("zero base: delay %s, want 0", d)
	}
	const base = 100 * time.Millisecond
	// Attempt k waits base·2^(k-1) plus at most 25% jitter.
	for attempt := 1; attempt <= 6; attempt++ {
		want := base << (attempt - 1)
		for shard := uint64(0); shard < 8; shard++ {
			d := backoffDelay(base, attempt, 7, shard)
			if d < want || d > want+want/4 {
				t.Errorf("attempt %d shard %d: delay %s outside [%s, %s]", attempt, shard, d, want, want+want/4)
			}
		}
	}
	// Once doubling passes the cap, the wait stays within backoffCap plus
	// its jitter, however many attempts follow.
	for attempt := 10; attempt <= 64; attempt++ {
		if d := backoffDelay(base, attempt, 7, 1); d < backoffCap || d > backoffCap+backoffCap/4 {
			t.Errorf("attempt %d: delay %s outside [%s, %s]", attempt, d, backoffCap, backoffCap+backoffCap/4)
		}
	}
	if d := backoffDelay(time.Hour, 1, 7, 1); d < backoffCap || d > backoffCap+backoffCap/4 {
		t.Errorf("base above the cap: delay %s outside [%s, %s]", d, backoffCap, backoffCap+backoffCap/4)
	}
	// The jitter is a function of (seed, shard, attempt) alone: the same
	// triple repeats its delay, and shards are decorrelated.
	distinct := map[time.Duration]bool{}
	for shard := uint64(0); shard < 8; shard++ {
		d := backoffDelay(base, 3, 7, shard)
		if again := backoffDelay(base, 3, 7, shard); again != d {
			t.Errorf("shard %d: delay %s then %s for the same inputs", shard, d, again)
		}
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Errorf("8 shards drew %d distinct delays; the jitter does not depend on the shard", len(distinct))
	}
}

func TestEvalParams(t *testing.T) {
	dp := dataset.BrightkiteLike()
	dp.Days = 30
	eval := func(scale string, days int) (experiments.Params, experiments.Sweeps) {
		t.Helper()
		params, sweeps, err := evalParams(dp, scale, days, 9, 3)
		if err != nil {
			t.Fatalf("%s scale, -days %d: %v", scale, days, err)
		}
		return params, sweeps
	}

	params, sweeps := eval("full", 0)
	want := experiments.Default()
	want.Seed, want.Parallelism = 9, 3
	if !reflect.DeepEqual(params, want) || !reflect.DeepEqual(sweeps, experiments.DefaultSweeps()) {
		t.Errorf("full scale: %+v %+v, want the default params and sweeps", params, sweeps)
	}

	params, sweeps = eval("quick", 0)
	want = experiments.Quick()
	want.Seed, want.Parallelism = 9, 3
	if !reflect.DeepEqual(params, want) || !reflect.DeepEqual(sweeps, experiments.QuickSweeps()) {
		t.Errorf("quick scale: %+v %+v, want the quick params and sweeps", params, sweeps)
	}

	// -days N evaluates the dataset's last N days, at either scale.
	for _, scale := range []string{"full", "quick"} {
		params, _ = eval(scale, 3)
		if want := []int{27, 28, 29}; !reflect.DeepEqual(params.Days, want) {
			t.Errorf("%s scale, -days 3: days %v, want %v", scale, params.Days, want)
		}
	}
	params, _ = eval("quick", 1)
	if want := []int{29}; !reflect.DeepEqual(params.Days, want) {
		t.Errorf("-days 1: days %v, want %v", params.Days, want)
	}
	params, _ = eval("quick", 30)
	if params.Days[0] != 0 || len(params.Days) != 30 {
		t.Errorf("-days 30: days %v, want 0..29", params.Days)
	}

	// A window longer than the dataset is refused before any training;
	// it used to train on a negative cutoff and fail later.
	if _, _, err := evalParams(dp, "quick", 40, 9, 3); err == nil || !strings.Contains(err.Error(), "-days 40") {
		t.Errorf("-days 40 on a 30-day dataset: err %v, want a -days error", err)
	}
}
