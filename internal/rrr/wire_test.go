package rrr

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dita/internal/randx"
	"dita/internal/socialgraph"
)

// wireFixture builds a small collection and returns its graph and a
// deep copy of its wire form, so callers may corrupt the arrays freely.
func wireFixture(t testing.TB) (*socialgraph.Graph, Wire) {
	t.Helper()
	g := socialgraph.GeneratePreferentialAttachment(12, 2, randx.New(41))
	w := Build(g, Params{Seed: 42, MaxSets: 40}).Wire()
	w.Roots = slices.Clone(w.Roots)
	w.SetOff = slices.Clone(w.SetOff)
	w.SetMembers = slices.Clone(w.SetMembers)
	w.CoverOff = slices.Clone(w.CoverOff)
	w.CoverIDs = slices.Clone(w.CoverIDs)
	return g, w
}

// TestFromWireAcceptsBuiltCollections: every collection Build returns,
// including the setless ones of degenerate graphs, carries a forward
// index and survives a JSON round trip of its wire form.
func TestFromWireAcceptsBuiltCollections(t *testing.T) {
	for _, g := range []*socialgraph.Graph{
		socialgraph.MustNew(0, nil),
		socialgraph.MustNew(1, nil),
		socialgraph.GeneratePreferentialAttachment(12, 2, randx.New(41)),
	} {
		c := Build(g, Params{Seed: 42, MaxSets: 40})
		raw, err := json.Marshal(c.Wire())
		if err != nil {
			t.Fatal(err)
		}
		var w Wire
		if err := json.Unmarshal(raw, &w); err != nil {
			t.Fatal(err)
		}
		got, err := FromWire(g, w)
		if err != nil {
			t.Fatalf("%d-worker graph: %v", g.N(), err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("%d-worker graph: round trip is not DeepEqual to the built collection", g.N())
		}
	}
}

// TestFromWireRejectsMalformed drives every validation branch of
// FromWire with one corruption of an otherwise valid wire.
func TestFromWireRejectsMalformed(t *testing.T) {
	n := int32(12)
	cases := []struct {
		name    string
		corrupt func(w *Wire)
		want    string
	}{
		{"cover offsets short", func(w *Wire) { w.CoverOff = w.CoverOff[:len(w.CoverOff)-1] }, "cover index has"},
		{"cover offsets not from zero", func(w *Wire) { w.CoverOff[0] = 1 }, "cover index offsets"},
		{"cover offsets decreasing", func(w *Wire) { w.CoverOff[1], w.CoverOff[2] = w.CoverOff[2]+1, w.CoverOff[1] }, "cover index offsets"},
		{"cover offsets overrun ids", func(w *Wire) { w.CoverIDs = w.CoverIDs[:len(w.CoverIDs)-1] }, "cover index offsets"},
		{"root negative", func(w *Wire) { w.Roots[0] = -1 }, "has root"},
		{"root past graph", func(w *Wire) { w.Roots[len(w.Roots)-1] = n }, "has root"},
		{"cover id negative", func(w *Wire) { w.CoverIDs[0] = -1 }, "names set"},
		{"cover id past sets", func(w *Wire) { w.CoverIDs[0] = int32(len(w.Roots)) }, "names set"},
		{"forward index absent", func(w *Wire) { w.SetOff, w.SetMembers = nil, nil }, "forward index has 0 offsets"},
		{"set offsets short", func(w *Wire) { w.SetOff = w.SetOff[:len(w.SetOff)-1] }, "forward index has"},
		{"set offsets not from zero", func(w *Wire) { w.SetOff[0] = 1 }, "forward-index offsets"},
		{"set offsets overrun members", func(w *Wire) { w.SetMembers = w.SetMembers[:len(w.SetMembers)-1] }, "forward-index offsets"},
		{"set member negative", func(w *Wire) { w.SetMembers[0] = -1 }, "set member"},
		{"set member past graph", func(w *Wire) { w.SetMembers[len(w.SetMembers)-1] = n }, "set member"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, w := wireFixture(t)
			if int32(g.N()) != n {
				t.Fatalf("fixture graph has %d workers, want %d", g.N(), n)
			}
			tc.corrupt(&w)
			c, err := FromWire(g, w)
			if err == nil {
				t.Fatalf("FromWire accepted the corrupt wire (%d sets)", c.NumSets())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzFromWire: any wire FromWire accepts must answer every query
// without panicking.
func FuzzFromWire(f *testing.F) {
	g, w := wireFixture(f)
	seed, err := json.Marshal(w)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"roots":[],"set_off":[0],"cover_off":[0,0,0,0,0,0,0,0,0,0,0,0,0],"cover_ids":[]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var w Wire
		if json.Unmarshal(raw, &w) != nil {
			return
		}
		c, err := FromWire(g, w)
		if err != nil {
			return
		}
		for ws := int32(0); ws < int32(g.N()); ws++ {
			c.Propagation(ws)
			c.PropagationSum(ws)
			c.InformedRange(ws)
			c.RootCounts(ws)
		}
		for id := int32(0); id < int32(c.NumSets()); id++ {
			c.SetMembers(id)
		}
		c.TopKSeeds(3)
	})
}
