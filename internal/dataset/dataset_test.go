package dataset

import (
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dita/internal/model"
	"dita/internal/paralleltest"
)

// smallParams keeps generation fast for tests.
func smallParams() Params {
	p := BrightkiteLike()
	p.NumUsers = 150
	p.NumVenues = 200
	p.Days = 8
	p.Seed = 7
	return p
}

func generate(t *testing.T, p Params) *Data {
	t.Helper()
	d, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestValidatePresets(t *testing.T) {
	if err := BrightkiteLike().Validate(); err != nil {
		t.Errorf("BK preset invalid: %v", err)
	}
	if err := FoursquareLike().Validate(); err != nil {
		t.Errorf("FS preset invalid: %v", err)
	}
}

func TestPreset(t *testing.T) {
	for _, c := range []struct {
		name string
		want string // Params.Name; "" means an error
	}{
		{"bk", "BK"}, {"BK", "BK"}, {"Bk", "BK"},
		{"fs", "FS"}, {"FS", "FS"}, {"fS", "FS"},
		{"", ""}, {"brightkite", ""}, {" bk", ""}, {"gw", ""},
	} {
		p, err := Preset(c.name)
		if c.want == "" {
			if err == nil {
				t.Errorf("Preset(%q) accepted", c.name)
			}
			continue
		}
		if err != nil || p.Name != c.want {
			t.Errorf("Preset(%q) = %q, %v; want %q", c.name, p.Name, err, c.want)
		}
	}
	if p, _ := Preset("bk"); p != BrightkiteLike() {
		t.Error("Preset(bk) differs from BrightkiteLike")
	}
	if p, _ := Preset("fs"); p != FoursquareLike() {
		t.Error("Preset(fs) differs from FoursquareLike")
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	base := smallParams()
	mutations := []func(*Params){
		func(p *Params) { p.NumUsers = 1 },
		func(p *Params) { p.NumVenues = 0 },
		func(p *Params) { p.FriendsPerUser = 0 },
		func(p *Params) { p.NumCategories = 0 },
		func(p *Params) { p.CategoryGroups = 0 },
		func(p *Params) { p.CategoryGroups = p.NumCategories + 1 },
		func(p *Params) { p.CatsPerVenueMax = 0 },
		func(p *Params) { p.NumClusters = 0 },
		func(p *Params) { p.CityKm = 0 },
		func(p *Params) { p.Days = 0 },
		func(p *Params) { p.CheckinsPerUserPerDay = 0 },
		func(p *Params) { p.MoveShape = 0 },
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := Generate(p); err == nil {
			t.Errorf("Generate accepted mutation %d", i)
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	p := smallParams()
	d := generate(t, p)
	if d.Graph.N() != p.NumUsers {
		t.Errorf("graph nodes %d, want %d", d.Graph.N(), p.NumUsers)
	}
	if len(d.Venues) != p.NumVenues {
		t.Errorf("venues %d, want %d", len(d.Venues), p.NumVenues)
	}
	if len(d.Homes) != p.NumUsers {
		t.Errorf("homes %d, want %d", len(d.Homes), p.NumUsers)
	}
	if d.NumCheckIns() == 0 {
		t.Fatal("no check-ins generated")
	}
	// Check-in volume should be near users × days × rate.
	want := float64(p.NumUsers) * float64(p.Days) * p.CheckinsPerUserPerDay
	got := float64(d.NumCheckIns())
	if got < want*0.7 || got > want*1.3 {
		t.Errorf("check-in count %v, want ≈ %v", got, want)
	}
}

func TestCheckInsSortedAndInWorld(t *testing.T) {
	p := smallParams()
	d := generate(t, p)
	for i, c := range d.CheckIns {
		if i > 0 && c.Arrive < d.CheckIns[i-1].Arrive {
			t.Fatalf("check-ins unsorted at %d", i)
		}
		if c.Complete < c.Arrive {
			t.Fatalf("check-in %d completes before arrival", i)
		}
		if c.Loc.X < 0 || c.Loc.X > p.CityKm || c.Loc.Y < 0 || c.Loc.Y > p.CityKm {
			t.Fatalf("check-in %d outside the world: %v", i, c.Loc)
		}
		if int(c.User) < 0 || int(c.User) >= p.NumUsers {
			t.Fatalf("check-in %d has bad user %d", i, c.User)
		}
		if int(c.Venue) < 0 || int(c.Venue) >= p.NumVenues {
			t.Fatalf("check-in %d has bad venue %d", i, c.Venue)
		}
		if len(c.Categories) == 0 {
			t.Fatalf("check-in %d has no categories", i)
		}
	}
}

// TestMergeByArriveMatchesSliceStable checks that Generate's check-in
// order is the one sort.SliceStable by Arrive gives over the chunks'
// concatenation. The input is the BK preset's check-ins regrouped by
// user in chunks of genChunk users, as Generate's chunks hold them, once
// with their own arrival times and once with the times cut to whole
// hours, so that most keys tie and only stability decides the order.
func TestMergeByArriveMatchesSliceStable(t *testing.T) {
	d := generate(t, BrightkiteLike())
	byUser := slices.Clone(d.CheckIns)
	sort.SliceStable(byUser, func(i, j int) bool { return byUser[i].User < byUser[j].User })
	for _, hours := range []bool{false, true} {
		cis := slices.Clone(byUser)
		if hours {
			for i := range cis {
				cis[i].Arrive = math.Floor(cis[i].Arrive)
			}
		}
		var chunks [][]model.CheckIn
		for lo := 0; lo < len(cis); {
			hi := lo
			for hi < len(cis) && int(cis[hi].User)/genChunk == int(cis[lo].User)/genChunk {
				hi++
			}
			chunks = append(chunks, cis[lo:hi])
			lo = hi
		}
		want := slices.Clone(cis)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Arrive < want[j].Arrive })
		if got := mergeByArrive(chunks); !reflect.DeepEqual(got, want) {
			t.Errorf("whole hours %v: mergeByArrive over %d chunks differs from sort.SliceStable", hours, len(chunks))
		}
	}
}

func TestVenueCategoriesWellFormed(t *testing.T) {
	p := smallParams()
	d := generate(t, p)
	for _, v := range d.Venues {
		if len(v.Categories) == 0 || len(v.Categories) > p.CatsPerVenueMax {
			t.Fatalf("venue %d has %d categories", v.ID, len(v.Categories))
		}
		for _, c := range v.Categories {
			if int(c) < 0 || int(c) >= p.NumCategories {
				t.Fatalf("venue %d category %d out of range", v.ID, c)
			}
		}
		if v.Group < 0 || v.Group >= p.CategoryGroups {
			t.Fatalf("venue %d group %d out of range", v.ID, v.Group)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := smallParams()
	a := generate(t, p)
	b := generate(t, p)
	if a.NumCheckIns() != b.NumCheckIns() {
		t.Fatalf("check-in counts differ: %d vs %d", a.NumCheckIns(), b.NumCheckIns())
	}
	for i := range a.CheckIns {
		ca, cb := a.CheckIns[i], b.CheckIns[i]
		if ca.User != cb.User || ca.Venue != cb.Venue || ca.Arrive != cb.Arrive {
			t.Fatalf("check-in %d differs: %+v vs %+v", i, ca, cb)
		}
	}
	// A different seed must give different data.
	p2 := p
	p2.Seed++
	c := generate(t, p2)
	same := 0
	limit := a.NumCheckIns()
	if c.NumCheckIns() < limit {
		limit = c.NumCheckIns()
	}
	for i := 0; i < limit; i++ {
		if a.CheckIns[i].Venue == c.CheckIns[i].Venue && a.CheckIns[i].User == c.CheckIns[i].User {
			same++
		}
	}
	if same == limit {
		t.Error("different seeds produced identical check-in streams")
	}
}

func TestHistoriesBeforeCutoff(t *testing.T) {
	d := generate(t, smallParams())
	cutoff := 4 * 24.0
	hists := d.HistoriesBefore(cutoff)
	if len(hists) == 0 {
		t.Fatal("no histories before cutoff")
	}
	for u, h := range hists {
		if len(h) == 0 {
			t.Fatalf("user %d has empty history entry", u)
		}
		for _, c := range h {
			if c.Arrive >= cutoff {
				t.Fatalf("user %d history leaks past cutoff: %v", u, c.Arrive)
			}
			if c.User != u {
				t.Fatalf("history for %d contains record of %d", u, c.User)
			}
		}
	}
}

func TestDocumentsMatchHistories(t *testing.T) {
	d := generate(t, smallParams())
	cutoff := 4 * 24.0
	docs, vocab := d.Documents(cutoff)
	if vocab != d.Params.NumCategories {
		t.Errorf("vocab %d, want %d", vocab, d.Params.NumCategories)
	}
	hists := d.HistoriesBefore(cutoff)
	for u, doc := range docs {
		wantLen := 0
		for _, c := range hists[model.WorkerID(u)] {
			wantLen += len(c.Categories)
		}
		if len(doc) != wantLen {
			t.Fatalf("user %d doc length %d, want %d", u, len(doc), wantLen)
		}
		for _, w := range doc {
			if int(w) < 0 || int(w) >= vocab {
				t.Fatalf("user %d doc word %d outside vocab", u, w)
			}
		}
	}
}

func TestSnapshotBasics(t *testing.T) {
	d := generate(t, smallParams())
	sp := SnapshotParams{Day: 5, NumTasks: 50, NumWorkers: 40, ValidHours: 5, RadiusKm: 25, Seed: 1}
	inst, err := d.Snapshot(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Workers) != 40 || len(inst.Tasks) != 50 {
		t.Fatalf("snapshot sizes %d workers, %d tasks", len(inst.Workers), len(inst.Tasks))
	}
	if inst.Now != 5*24 {
		t.Errorf("Now = %v, want 120", inst.Now)
	}
	seenU := map[model.WorkerID]bool{}
	for i, w := range inst.Workers {
		if int(w.ID) != i {
			t.Fatalf("worker %d has ID %d (instance ids must be dense)", i, w.ID)
		}
		if seenU[w.User] {
			t.Fatalf("user %d sampled twice", w.User)
		}
		seenU[w.User] = true
		if w.Radius != 25 {
			t.Errorf("worker radius %v", w.Radius)
		}
	}
	seenV := map[model.VenueID]bool{}
	for j, s := range inst.Tasks {
		if int(s.ID) != j {
			t.Fatalf("task %d has ID %d", j, s.ID)
		}
		if seenV[s.Venue] {
			t.Fatalf("venue %d sampled twice", s.Venue)
		}
		seenV[s.Venue] = true
		if s.Publish != inst.Now || s.Valid != 5 {
			t.Errorf("task %d timing %v/%v", j, s.Publish, s.Valid)
		}
		if len(s.Categories) == 0 {
			t.Errorf("task %d has no categories", j)
		}
	}
}

func TestSnapshotWorkerLocationIsMostRecentCheckin(t *testing.T) {
	d := generate(t, smallParams())
	inst, err := d.Snapshot(SnapshotParams{Day: 6, NumTasks: 10, NumWorkers: 30, ValidHours: 5, RadiusKm: 25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	now := inst.Now
	for _, w := range inst.Workers {
		idxs := d.UserCheckIns(w.User)
		var wantLoc = d.Homes[w.User]
		for _, i := range idxs {
			if d.CheckIns[i].Arrive < now {
				wantLoc = d.CheckIns[i].Loc
			} else {
				break
			}
		}
		if math.Abs(wantLoc.X-w.Loc.X) > 1e-12 || math.Abs(wantLoc.Y-w.Loc.Y) > 1e-12 {
			t.Fatalf("worker (user %d) at %v, want most recent check-in %v", w.User, w.Loc, wantLoc)
		}
	}
}

func TestSnapshotValidation(t *testing.T) {
	d := generate(t, smallParams())
	bad := []SnapshotParams{
		{Day: -1, NumTasks: 1, NumWorkers: 1, ValidHours: 1, RadiusKm: 1},
		{Day: 99, NumTasks: 1, NumWorkers: 1, ValidHours: 1, RadiusKm: 1},
		{Day: 0, NumTasks: 0, NumWorkers: 1, ValidHours: 1, RadiusKm: 1},
		{Day: 0, NumTasks: 1, NumWorkers: 0, ValidHours: 1, RadiusKm: 1},
		{Day: 0, NumTasks: 10000, NumWorkers: 1, ValidHours: 1, RadiusKm: 1},
		{Day: 0, NumTasks: 1, NumWorkers: 10000, ValidHours: 1, RadiusKm: 1},
		{Day: 0, NumTasks: 1, NumWorkers: 1, ValidHours: 0, RadiusKm: 1},
		{Day: 0, NumTasks: 1, NumWorkers: 1, ValidHours: 1, RadiusKm: 0},
	}
	for i, sp := range bad {
		if _, err := d.Snapshot(sp); err == nil {
			t.Errorf("bad snapshot %d accepted", i)
		}
	}
}

func TestSnapshotDeterministicPerSeed(t *testing.T) {
	d := generate(t, smallParams())
	sp := SnapshotParams{Day: 5, NumTasks: 30, NumWorkers: 25, ValidHours: 5, RadiusKm: 25, Seed: 9}
	a, err := d.Snapshot(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := d.Snapshot(sp)
	for i := range a.Workers {
		if a.Workers[i].User != b.Workers[i].User {
			t.Fatal("snapshot worker sampling nondeterministic")
		}
	}
	sp.Seed = 10
	c, _ := d.Snapshot(sp)
	same := true
	for i := range a.Workers {
		if a.Workers[i].User != c.Workers[i].User {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical worker samples")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	p := smallParams()
	p.NumUsers = 60
	p.NumVenues = 80
	p.Days = 4
	orig := generate(t, p)
	if err := orig.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Params != orig.Params {
		t.Errorf("params differ:\n%+v\n%+v", loaded.Params, orig.Params)
	}
	if loaded.Graph.M() != orig.Graph.M() {
		t.Errorf("edges %d, want %d", loaded.Graph.M(), orig.Graph.M())
	}
	if len(loaded.Venues) != len(orig.Venues) {
		t.Fatalf("venues %d, want %d", len(loaded.Venues), len(orig.Venues))
	}
	for i := range orig.Venues {
		a, b := orig.Venues[i], loaded.Venues[i]
		if a.ID != b.ID || a.Loc != b.Loc || a.Group != b.Group || len(a.Categories) != len(b.Categories) {
			t.Fatalf("venue %d differs: %+v vs %+v", i, a, b)
		}
	}
	if loaded.NumCheckIns() != orig.NumCheckIns() {
		t.Fatalf("check-ins %d, want %d", loaded.NumCheckIns(), orig.NumCheckIns())
	}
	for i := range orig.CheckIns {
		a, b := orig.CheckIns[i], loaded.CheckIns[i]
		if a.User != b.User || a.Venue != b.Venue || a.Arrive != b.Arrive || a.Complete != b.Complete {
			t.Fatalf("check-in %d differs", i)
		}
	}
	// A snapshot of the loaded data matches one of the original.
	sp := SnapshotParams{Day: 2, NumTasks: 20, NumWorkers: 15, ValidHours: 5, RadiusKm: 25, Seed: 3}
	ia, err := orig.Snapshot(sp)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := loaded.Snapshot(sp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ia.Workers {
		if ia.Workers[i].User != ib.Workers[i].User || ia.Workers[i].Loc != ib.Workers[i].Loc {
			t.Fatal("snapshots differ after round trip")
		}
	}
}

func TestLoadMissingDirectory(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("loading a missing directory succeeded")
	}
}

func TestUserCheckInsOrdered(t *testing.T) {
	d := generate(t, smallParams())
	for u := 0; u < d.Params.NumUsers; u++ {
		idxs := d.UserCheckIns(model.WorkerID(u))
		for k := 1; k < len(idxs); k++ {
			if d.CheckIns[idxs[k-1]].Arrive > d.CheckIns[idxs[k]].Arrive {
				t.Fatalf("user %d check-ins unordered", u)
			}
		}
		for _, i := range idxs {
			if d.CheckIns[i].User != model.WorkerID(u) {
				t.Fatalf("user %d index points at record of %d", u, d.CheckIns[i].User)
			}
		}
	}
}

func TestCheckInsBeforeIsPrefix(t *testing.T) {
	d := generate(t, smallParams())
	cutoff := 3 * 24.0
	before := d.CheckInsBefore(cutoff)
	for _, c := range before {
		if c.Arrive >= cutoff {
			t.Fatalf("record at %v leaked past cutoff %v", c.Arrive, cutoff)
		}
	}
	if len(before) < d.NumCheckIns() && d.CheckIns[len(before)].Arrive < cutoff {
		t.Error("CheckInsBefore returned a short prefix")
	}
}

func TestGenerateParallelismInvariant(t *testing.T) {
	// The whole dataset — graph, venues, homes, check-in stream and
	// per-user index — must be bit-identical at any worker count. The
	// returned Data clears the Parallelism knob, so DeepEqual over the
	// full struct is exact.
	p := smallParams()
	paralleltest.Invariant(t, func(par int) any {
		p.Parallelism = par
		return generate(t, p)
	})
}

func TestGenerateDoesNotRetainParallelism(t *testing.T) {
	p := smallParams()
	p.Parallelism = 6
	d := generate(t, p)
	if d.Params.Parallelism != 0 {
		t.Errorf("Data retained Parallelism %d; the knob is not part of dataset identity", d.Params.Parallelism)
	}
}

// TestFrameworkSourceFormat pins the training-input identity string
// byte for byte: framework artifacts sealed earlier carry it, and a
// -framework load compares it verbatim.
func TestFrameworkSourceFormat(t *testing.T) {
	cases := []struct {
		p      Params
		cutoff float64
		want   string
	}{
		{BrightkiteLike(), 600, "dataset=BK users=2400 venues=3200 days=30 dataset-seed=46876 cutoff-h=600"},
		{FoursquareLike(), 612.5, "dataset=FS users=2200 venues=2800 days=30 dataset-seed=62894 cutoff-h=612.5"},
		{smallParams(), 0, "dataset=BK users=150 venues=200 days=8 dataset-seed=7 cutoff-h=0"},
	}
	for _, c := range cases {
		if got := c.p.FrameworkSource(c.cutoff); got != c.want {
			t.Errorf("FrameworkSource(%v) = %q, want %q", c.cutoff, got, c.want)
		}
	}
}
