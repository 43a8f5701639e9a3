package entropy

import (
	"math"
	"testing"

	"dita/internal/model"
	"dita/internal/randx"
)

func checkin(user model.WorkerID, venue model.VenueID) model.CheckIn {
	return model.CheckIn{User: user, Venue: venue}
}

func TestSingleWorkerVenueHasZeroEntropy(t *testing.T) {
	tbl := Compute([]model.CheckIn{
		checkin(1, 0), checkin(1, 0), checkin(1, 0),
	})
	if got := tbl.Lookup(0); got != 0 {
		t.Errorf("single-visitor entropy = %v, want 0", got)
	}
}

func TestUniformVisitorsMaximizeEntropy(t *testing.T) {
	// k workers visiting equally often → entropy ln(k).
	var records []model.CheckIn
	for w := model.WorkerID(0); w < 4; w++ {
		records = append(records, checkin(w, 0), checkin(w, 0))
	}
	tbl := Compute(records)
	want := math.Log(4)
	if got := tbl.Lookup(0); math.Abs(got-want) > 1e-12 {
		t.Errorf("uniform entropy = %v, want ln(4) = %v", got, want)
	}
}

func TestSkewedVisitsLowerEntropy(t *testing.T) {
	// Venue 0: perfectly uniform across 3 workers. Venue 1: same worker
	// count but heavily skewed. Uniform must have higher entropy.
	records := []model.CheckIn{
		checkin(0, 0), checkin(1, 0), checkin(2, 0),
		checkin(0, 1), checkin(0, 1), checkin(0, 1), checkin(0, 1),
		checkin(0, 1), checkin(0, 1), checkin(0, 1), checkin(0, 1),
		checkin(1, 1), checkin(2, 1),
	}
	tbl := Compute(records)
	if tbl.Lookup(0) <= tbl.Lookup(1) {
		t.Errorf("uniform venue entropy %v not above skewed %v", tbl.Lookup(0), tbl.Lookup(1))
	}
}

func TestKnownEntropyValue(t *testing.T) {
	// Two workers, visits 3 and 1: p = (3/4, 1/4),
	// H = −(3/4)ln(3/4) − (1/4)ln(1/4).
	records := []model.CheckIn{
		checkin(0, 5), checkin(0, 5), checkin(0, 5), checkin(1, 5),
	}
	want := -(0.75*math.Log(0.75) + 0.25*math.Log(0.25))
	tbl := Compute(records)
	if got := tbl.Lookup(5); math.Abs(got-want) > 1e-12 {
		t.Errorf("entropy = %v, want %v", got, want)
	}
}

func TestUnknownVenueZero(t *testing.T) {
	tbl := Compute(nil)
	if got := tbl.Lookup(99); got != 0 {
		t.Errorf("unknown venue entropy = %v, want 0", got)
	}
	if len(tbl.byVenue) != 0 {
		t.Errorf("empty table Len = %d", len(tbl.byVenue))
	}
}

func TestEntropyNonNegativeAndBounded(t *testing.T) {
	// Entropy over k visitors is within [0, ln k].
	var records []model.CheckIn
	for w := model.WorkerID(0); w < 7; w++ {
		for i := model.WorkerID(0); i <= w; i++ {
			records = append(records, checkin(w, 3))
		}
	}
	tbl := Compute(records)
	got := tbl.Lookup(3)
	if got < 0 || got > math.Log(7) {
		t.Errorf("entropy %v outside [0, ln 7]", got)
	}
}

func TestComputeBitDeterministic(t *testing.T) {
	// The entropy sum must accumulate in record order, not map order:
	// two computations over the same records agree bit for bit. (A
	// venue needs ≥ 3 distinct visitors with unequal shares for float
	// association to matter; build many.)
	rng := randx.New(9)
	var records []model.CheckIn
	for i := 0; i < 4000; i++ {
		records = append(records, model.CheckIn{
			User:  model.WorkerID(rng.Intn(60)),
			Venue: model.VenueID(rng.Intn(25)),
		})
	}
	a := Compute(records)
	b := Compute(records)
	if len(a.byVenue) != len(b.byVenue) {
		t.Fatalf("table sizes differ: %d vs %d", len(a.byVenue), len(b.byVenue))
	}
	for v := model.VenueID(0); int(v) < 25; v++ {
		if a.Lookup(v) != b.Lookup(v) {
			t.Fatalf("venue %d entropy differs between identical runs: %v vs %v",
				v, a.Lookup(v), b.Lookup(v))
		}
	}
}
