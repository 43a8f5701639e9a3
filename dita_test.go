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
		ev := fw.Prepare(inst, mask, 2)
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
