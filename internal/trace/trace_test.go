package trace

import (
	"math"
	"reflect"
	"testing"

	"dita/internal/dataset"
)

func testData(t *testing.T) *dataset.Data {
	t.Helper()
	p := dataset.BrightkiteLike()
	p.NumUsers = 80
	p.NumVenues = 120
	p.Days = 3
	p.Seed = 5
	data, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestBuildDeterministicAndSorted(t *testing.T) {
	data := testData(t)
	p := Params{Arrivals: 200, Seed: 9, Start: 48, Spread: 20, RadiusKm: 8, ValidMin: 3, ValidSpan: 3}
	ws1, ts1, err := Build(data, p)
	if err != nil {
		t.Fatal(err)
	}
	ws2, ts2, err := Build(data, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ws1, ws2) || !reflect.DeepEqual(ts1, ts2) {
		t.Fatal("identical Params produced different traces")
	}
	if len(ws1) != p.Arrivals || len(ts1) != p.Arrivals {
		t.Fatalf("trace sizes %d/%d, want %d", len(ws1), len(ts1), p.Arrivals)
	}
	for i := 1; i < len(ws1); i++ {
		if ws1[i].At < ws1[i-1].At {
			t.Fatal("worker stream not time-sorted")
		}
	}
	for i := 1; i < len(ts1); i++ {
		if ts1[i].Publish < ts1[i-1].Publish {
			t.Fatal("task stream not time-sorted")
		}
	}
	for _, w := range ws1 {
		if w.At < p.Start || w.At >= p.Start+p.Spread {
			t.Fatalf("arrival at %v outside window", w.At)
		}
		if w.Radius != p.RadiusKm {
			t.Fatalf("radius %v, want %v", w.Radius, p.RadiusKm)
		}
	}
	for _, task := range ts1 {
		if task.Valid < p.ValidMin || task.Valid >= p.ValidMin+p.ValidSpan {
			t.Fatalf("validity %v outside bounds", task.Valid)
		}
	}
	// Different seeds produce different traces (the sampler is live).
	ws3, _, err := Build(data, Params{Arrivals: 200, Seed: 10, Start: 48, Spread: 20, RadiusKm: 8, ValidMin: 3, ValidSpan: 3})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ws1, ws3) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestBuildValidation(t *testing.T) {
	data := testData(t)
	if _, _, err := Build(data, Params{Arrivals: 0}); err == nil {
		t.Error("zero arrivals accepted")
	}
	if _, _, err := Build(&dataset.Data{}, Params{Arrivals: 1}); err == nil {
		t.Error("empty dataset accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []Params{
		{Start: nan, Spread: 1},
		{Start: inf, Spread: 1},
		{Start: -inf, Spread: 1},
		{Spread: nan},
		{Spread: inf},
		{Spread: -1},
	} {
		p.Arrivals = 1
		if _, _, err := Build(data, p); err == nil {
			t.Errorf("start %v, spread %v accepted", p.Start, p.Spread)
		}
	}
}
