package dita_test

import (
	"testing"

	"dita"
)

// TestPublicAPIEndToEnd exercises the full documented quick-start path
// through the facade only: generate → train → snapshot → assign.
func TestPublicAPIEndToEnd(t *testing.T) {
	params := dita.BrightkiteLike()
	params.NumUsers = 150
	params.NumVenues = 200
	params.Days = 8
	data, err := dita.Generate(params)
	if err != nil {
		t.Fatal(err)
	}

	fw, err := dita.Train(dita.TrainingDataFrom(data, 6*24), dita.Config{})
	if err != nil {
		t.Fatal(err)
	}

	inst, err := data.Snapshot(dita.SnapshotParams{
		Day: 6, NumTasks: 40, NumWorkers: 30, ValidHours: 5, RadiusKm: 25, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, alg := range []dita.Algorithm{dita.MTA, dita.IA, dita.EIA, dita.DIA, dita.MI} {
		set, m := fw.Assign(inst, alg, 1)
		if err := set.Validate(len(inst.Tasks), len(inst.Workers)); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if m.Assigned == 0 {
			t.Errorf("%v assigned nothing", alg)
		}
	}

	// Feasible pairs helper.
	pairs := dita.FeasiblePairs(inst, 5)
	if len(pairs) == 0 {
		t.Error("no feasible pairs on a generous instance")
	}

	// Ablation masks through the facade, sharing one feasibility scan.
	for _, mask := range []dita.Components{dita.All, dita.WP, dita.AP, dita.AW} {
		ev := fw.PrepareSession(mask, 2, 0).PreparePairs(inst, pairs)
		set, _, _ := fw.AssignPreparedPairsTiled(inst, ev, dita.IA, pairs, 1)
		if set.Len() == 0 {
			t.Errorf("mask %v assigned nothing", mask)
		}
	}
}

func TestDatasetSaveLoadThroughFacade(t *testing.T) {
	params := dita.FoursquareLike()
	params.NumUsers = 80
	params.NumVenues = 100
	params.Days = 3
	data, err := dita.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := data.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := dita.LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumCheckIns() != data.NumCheckIns() {
		t.Errorf("round trip lost check-ins: %d vs %d", loaded.NumCheckIns(), data.NumCheckIns())
	}
}

// TestPublicAPIStreaming drives the streaming engine through the facade
// only: arrivals over one day replayed on an instant grid.
func TestPublicAPIStreaming(t *testing.T) {
	params := dita.BrightkiteLike()
	params.NumUsers = 150
	params.NumVenues = 200
	params.Days = 8
	data, err := dita.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := dita.Train(dita.TrainingDataFrom(data, 6*24), dita.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ws []dita.WorkerArrival
	var ts []dita.TaskArrival
	for i := 0; i < 40; i++ {
		u := dita.WorkerID(i * 3 % params.NumUsers)
		ws = append(ws, dita.WorkerArrival{User: u, Loc: data.Homes[u], Radius: 25, At: 144 + float64(i)*0.25})
		v := data.Venues[i*5%len(data.Venues)]
		ts = append(ts, dita.TaskArrival{
			Loc: v.Loc, Publish: 144 + float64(i)*0.25, Valid: 4, Categories: v.Categories, Venue: v.ID,
		})
	}
	eng, err := dita.NewEngine(fw, dita.EngineConfig{Algorithm: dita.IA, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	instants, err := eng.Replay(dita.Grid{Start: 144, Step: 1, Horizon: 16}, ws, ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(instants) != 17 {
		t.Errorf("%d instants, want 17", len(instants))
	}
	tot := eng.Totals()
	if tot.Assigned == 0 {
		t.Fatal("streaming replay assigned nothing")
	}
	if r := tot.CompletionRate(); r < 0 || r > 1 {
		t.Errorf("completion rate %v outside [0, 1]", r)
	}
}
