package model_test

import (
	"testing"

	"dita/internal/assign"
	"dita/internal/geo"
	"dita/internal/model"
)

// The paper's two spatio-temporal constraints — the task within the
// worker's reachable range, d(w.l, s.l) ≤ w.r, and reached before its
// deadline, now + d/speed ≤ s.p + s.ϕ — have one definition for the
// whole pipeline: the feasibility scan in package assign. These cases
// pin its boundaries on one worker and one task.
func feasible(w model.Worker, s model.Task, now, speedKmH float64) bool {
	inst := &model.Instance{Now: now, Workers: []model.Worker{w}, Tasks: []model.Task{s}}
	return len(assign.FeasiblePairs(inst, speedKmH)) == 1
}

func TestFeasible(t *testing.T) {
	w := model.Worker{Loc: geo.Point{X: 0, Y: 0}, Radius: 10}
	mkTask := func(x float64, publish, valid float64) model.Task {
		return model.Task{Loc: geo.Point{X: x}, Publish: publish, Valid: valid}
	}
	tests := []struct {
		name  string
		s     model.Task
		now   float64
		speed float64
		want  bool
	}{
		{"in radius, in time", mkTask(5, 0, 2), 0, 5, true},
		{"outside radius", mkTask(11, 0, 100), 0, 5, false},
		{"radius boundary", mkTask(10, 0, 100), 0, 5, true},
		{"deadline too tight", mkTask(10, 0, 1.9), 0, 5, false},
		{"deadline exact", mkTask(10, 0, 2), 0, 5, true},
		{"already expired", mkTask(1, 0, 1), 2, 5, false},
		{"expiry in future relative to now", mkTask(5, 3, 2), 3.5, 5, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := feasible(w, tc.s, tc.now, tc.speed); got != tc.want {
				t.Errorf("feasible = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestFeasibleZeroSpeed: a speed ≤ 0 means the paper's 5 km/h, so it
// admits exactly what speed 5 admits — distant and colocated tasks, and
// not a deadline 5 km/h misses.
func TestFeasibleZeroSpeed(t *testing.T) {
	w := model.Worker{Loc: geo.Point{}, Radius: 10}
	for _, tc := range []struct {
		s    model.Task
		want bool
	}{
		{model.Task{Loc: geo.Point{X: 5}, Publish: 0, Valid: 100}, true},
		{model.Task{Loc: geo.Point{}, Publish: 0, Valid: 1}, true},
		{model.Task{Loc: geo.Point{X: 10}, Publish: 0, Valid: 1.9}, false},
		{model.Task{Loc: geo.Point{X: 10}, Publish: 0, Valid: 2}, true},
	} {
		for _, speed := range []float64{0, -1, 5} {
			if got := feasible(w, tc.s, 0, speed); got != tc.want {
				t.Errorf("task %+v at speed %g: feasible = %v, want %v", tc.s, speed, got, tc.want)
			}
		}
	}
}
