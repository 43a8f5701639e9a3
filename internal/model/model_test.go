package model

import "testing"

func TestTaskExpiry(t *testing.T) {
	s := Task{Publish: 10, Valid: 5}
	if got := s.Expiry(); got != 15 {
		t.Errorf("Expiry = %v, want 15", got)
	}
}

func TestHistorySortByTime(t *testing.T) {
	h := History{
		{Venue: 2, Arrive: 3},
		{Venue: 0, Arrive: 1},
		{Venue: 1, Arrive: 2},
	}
	h.SortByTime()
	for i := 0; i < len(h)-1; i++ {
		if h[i].Arrive > h[i+1].Arrive {
			t.Fatalf("not sorted at %d: %v", i, h)
		}
	}
	if h[0].Venue != 0 || h[2].Venue != 2 {
		t.Errorf("unexpected order: %+v", h)
	}
}

func TestHistorySortIsStable(t *testing.T) {
	h := History{
		{Venue: 5, Arrive: 1},
		{Venue: 7, Arrive: 1},
		{Venue: 6, Arrive: 1},
	}
	h.SortByTime()
	if h[0].Venue != 5 || h[1].Venue != 7 || h[2].Venue != 6 {
		t.Errorf("equal timestamps reordered: %+v", h)
	}
}

func TestAssignmentSetMetrics(t *testing.T) {
	a := &AssignmentSet{
		Pairs:     []Assignment{{Task: 0, Worker: 0}, {Task: 1, Worker: 1}},
		Influence: []float64{1.0, 3.0},
		TravelKm:  []float64{2.0, 4.0},
	}
	if got := a.Len(); got != 2 {
		t.Errorf("Len = %d", got)
	}
	if got := a.TotalInfluence(); got != 4 {
		t.Errorf("TotalInfluence = %v", got)
	}
	if got := a.AverageInfluence(); got != 2 {
		t.Errorf("AverageInfluence = %v", got)
	}
	if got := a.AverageTravel(); got != 3 {
		t.Errorf("AverageTravel = %v", got)
	}
}

func TestAssignmentSetEmptyMetrics(t *testing.T) {
	a := &AssignmentSet{}
	if a.AverageInfluence() != 0 || a.AverageTravel() != 0 || a.TotalInfluence() != 0 {
		t.Error("empty set metrics not all zero")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	mk := func(pairs ...Assignment) *AssignmentSet {
		return &AssignmentSet{
			Pairs:     pairs,
			Influence: make([]float64, len(pairs)),
			TravelKm:  make([]float64, len(pairs)),
		}
	}
	tests := []struct {
		name string
		a    *AssignmentSet
		ok   bool
	}{
		{"valid", mk(Assignment{0, 0}, Assignment{1, 1}), true},
		{"empty", mk(), true},
		{"dup task", mk(Assignment{0, 0}, Assignment{0, 1}), false},
		{"dup worker", mk(Assignment{0, 0}, Assignment{1, 0}), false},
		{"task out of range", mk(Assignment{5, 0}), false},
		{"worker out of range", mk(Assignment{0, 5}), false},
		{"negative task", mk(Assignment{-1, 0}), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.a.Validate(3, 3)
			if (err == nil) != tc.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tc.ok)
			}
		})
	}
	// Ragged arrays.
	bad := &AssignmentSet{Pairs: []Assignment{{0, 0}}, Influence: nil, TravelKm: []float64{1}}
	if bad.Validate(1, 1) == nil {
		t.Error("ragged set validated")
	}
}
