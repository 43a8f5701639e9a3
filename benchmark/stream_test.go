package main

import (
	"reflect"
	"testing"

	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/engine"
	"dita/internal/fwio"
	"dita/internal/model"
)

func toyData(t *testing.T, sc scale) *dataset.Data {
	t.Helper()
	data, err := dataset.Generate(sc.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestEventListDeterministic(t *testing.T) {
	sc := toyScale()
	data := toyData(t, sc)
	for _, sp := range []streamSpec{sc.Sparse, sc.Dense} {
		a, err := buildStream(data, sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildStream(data, sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("mask %v: same seed built different event lists", sp.Mask)
		}
		c, err := buildStream(data, sp, 8)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("mask %v: seeds 7 and 8 built the same event list", sp.Mask)
		}
		if len(a.ws) != sp.Workers || len(a.ts) != sp.Tasks {
			t.Errorf("mask %v: %d workers, %d tasks; want %d, %d", sp.Mask, len(a.ws), len(a.ts), sp.Workers, sp.Tasks)
		}
		// Every arrival is admitted by the last instant, each departure is
		// scheduled at most once, and never before its worker arrived.
		last := a.sched[len(a.sched)-1]
		if last.WorkerHi != len(a.ws) || last.TaskHi != len(a.ts) {
			t.Errorf("mask %v: last instant admits %d/%d workers, %d/%d tasks",
				sp.Mask, last.WorkerHi, len(a.ws), last.TaskHi, len(a.ts))
		}
		seen := map[int32]bool{}
		prevHi := 0
		for _, st := range a.sched {
			for _, w := range st.Departs {
				if seen[w] || int(w) >= prevHi {
					t.Fatalf("mask %v: departure of worker %d at %v (admitted before: %d, repeated %t)",
						sp.Mask, w, st.At, prevHi, seen[w])
				}
				seen[w] = true
			}
			prevHi = st.WorkerHi
		}
		if sp.ShiftSpan > 0 && len(seen) == 0 {
			t.Errorf("mask %v: shifts configured but no departure scheduled", sp.Mask)
		}
	}
}

func toyFramework(t *testing.T, sc scale, data *dataset.Data) *core.Framework {
	t.Helper()
	fw, err := trainFramework(data, sc, nil, &metrics{})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// Departures address workers by platform id, which the benchmark takes
// to be the arrival index; the engine must mint exactly that.
func TestMintedWorkerIDsAreArrivalIndices(t *testing.T) {
	sc := toyScale()
	data := toyData(t, sc)
	fw := toyFramework(t, sc, data)
	in, err := buildStream(data, sc.Dense, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(fw, engineConfig(sc.Dense.Mask, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range in.ws {
		ap, err := eng.Apply(engine.Event{Kind: engine.WorkerArrive, At: w.At, Worker: w})
		if err != nil {
			t.Fatal(err)
		}
		if ap.WorkerID != model.WorkerID(i) {
			t.Fatalf("arrival %d minted worker id %d", i, ap.WorkerID)
		}
		if i%50 == 0 {
			eng.Fire(w.At) // retirements between arrivals must not disturb minting
		}
	}

	// A full replay departs workers by those ids without a refusal, and
	// two replays at different parallelism render the same output.
	r1, err := replay(fw, in, engineConfig(sc.Dense.Mask, 3, 2), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(r1, in, nil); err != nil {
		t.Fatal(err)
	}
	if r1.failed != 0 || r1.totals.Departed == 0 {
		t.Errorf("replay: %d refused events, %d departures", r1.failed, r1.totals.Departed)
	}
	r2, err := replay(fw, in, engineConfig(sc.Dense.Mask, 3, 1), &tracer{}, "p1")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(r2, in, r1.csv); err != nil {
		t.Fatal(err)
	}
}

func TestStagedTrainingMatchesCoreTrain(t *testing.T) {
	sc := toyScale()
	data := toyData(t, sc)
	source := frameworkSource(sc)
	var m metrics
	staged, err := trainFramework(data, sc, &tracer{}, &m)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := fwio.Encode(toyFramework(t, sc, data), source)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := fwio.Encode(staged, source)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("staged training checksum %s, core.Train %s", got, want)
	}
	for _, name := range []string{"lda.train_ms", "mobility.fit_ms", "entropy.compute_ms", "rrr.build_ms", "rrr.sets"} {
		if _, ok := m.lookup(name); !ok {
			t.Errorf("staged training did not report %s", name)
		}
	}
}
