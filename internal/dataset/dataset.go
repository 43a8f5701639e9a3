// Package dataset simulates the geo-social check-in datasets the paper
// evaluates on (Brightkite and FourSquare). The real dumps are not
// available offline, so the generator produces synthetic datasets that
// preserve the structural properties the DITA algorithms exercise:
//
//   - a friendship network with heavy-tailed degrees (preferential
//     attachment), as in real location-based social networks;
//   - venues clustered into city-like regions, each labelled with
//     categories from a skewed taxonomy (the FourSquare API role);
//   - per-user check-in trajectories whose displacement lengths are
//     Pareto distributed — the self-similar movement model the paper
//     itself adopts for worker willingness — and whose venue choices are
//     biased by per-user category preferences, so LDA has real structure
//     to learn;
//   - daily cadence: each simulated day yields the active workers and
//     tasks of one time instance, mirroring the paper's "time granularity
//     of one day".
//
// Two presets, BrightkiteLike and FoursquareLike, mirror the contrast
// between the paper's datasets: BK is geographically spread with sparser
// check-ins; FS is denser both socially and spatially with a richer
// category vocabulary.
package dataset

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/parallel"
	"dita/internal/randx"
	"dita/internal/socialgraph"
)

// Params configures the generator. All fields must be positive; use a
// preset and tweak from there.
type Params struct {
	Name string

	NumUsers       int // workers in the social network
	NumVenues      int // candidate task locations
	FriendsPerUser int // preferential-attachment edges added per user

	NumCategories   int // vocabulary size of the category taxonomy
	CategoryGroups  int // semantic groups (latent "true topics")
	CatsPerVenueMax int // venues carry 1..CatsPerVenueMax categories

	NumClusters int     // venue/home clusters ("cities")
	CityKm      float64 // side of the square world, km
	ClusterStd  float64 // cluster spread (std dev), km

	Days                  int     // simulated days of history
	CheckinsPerUserPerDay float64 // Poisson rate
	MoveShape             float64 // Pareto shape of jump lengths
	MoveScaleKm           float64 // Pareto scale (minimum jump), km

	Seed uint64

	// Parallelism bounds the generator's worker goroutines; <= 0 means
	// runtime.GOMAXPROCS(0). Venues, users and per-user trajectories are
	// generated in fixed chunks, each driven by a stream split off the
	// stage seed by chunk index, so the dataset is bit-identical at any
	// setting. The knob is a runtime choice, not part of the dataset
	// identity: it is cleared in the returned Data's Params and never
	// serialized by Save.
	Parallelism int
}

// BrightkiteLike returns parameters that echo Brightkite's character:
// wide geography, sparser activity, moderate category richness. Sizes
// are laptop-scale; the paper's sweeps (|S| ≤ 2500, |W| ≤ 2000) fit.
func BrightkiteLike() Params {
	return Params{
		Name:                  "BK",
		NumUsers:              2400,
		NumVenues:             3200,
		FriendsPerUser:        3,
		NumCategories:         60,
		CategoryGroups:        10,
		CatsPerVenueMax:       3,
		NumClusters:           12,
		CityKm:                300,
		ClusterStd:            18,
		Days:                  30,
		CheckinsPerUserPerDay: 1.2,
		MoveShape:             1.5,
		MoveScaleKm:           1,
		Seed:                  0xb71c,
	}
}

// FoursquareLike returns parameters that echo FourSquare's character:
// compact geography, denser check-ins and friendships, richer categories.
func FoursquareLike() Params {
	return Params{
		Name:                  "FS",
		NumUsers:              2200,
		NumVenues:             2800,
		FriendsPerUser:        4,
		NumCategories:         80,
		CategoryGroups:        12,
		CatsPerVenueMax:       4,
		NumClusters:           6,
		CityKm:                120,
		ClusterStd:            10,
		Days:                  30,
		CheckinsPerUserPerDay: 2.0,
		MoveShape:             1.2,
		MoveScaleKm:           0.5,
		Seed:                  0xf5ae,
	}
}

// Preset returns the generator parameters of a named preset: "bk" for
// BrightkiteLike or "fs" for FoursquareLike, in any letter case.
func Preset(name string) (Params, error) {
	switch strings.ToLower(name) {
	case "bk":
		return BrightkiteLike(), nil
	case "fs":
		return FoursquareLike(), nil
	}
	return Params{}, fmt.Errorf("dataset: unknown preset %q (want bk or fs)", name)
}

// FrameworkSource canonically identifies a framework's training input:
// the parameters that shape the training set plus the offline/online
// cutoff. Tools record it in every framework artifact they seal and
// recompute it when loading one, so an artifact fitted for a different
// run is refused. Its format is fixed: artifacts sealed earlier carry it.
func (p Params) FrameworkSource(cutoffHours float64) string {
	return fmt.Sprintf("dataset=%s users=%d venues=%d days=%d dataset-seed=%d cutoff-h=%g",
		p.Name, p.NumUsers, p.NumVenues, p.Days, p.Seed, cutoffHours)
}

// Validate reports the first problem with p, or nil.
func (p Params) Validate() error {
	switch {
	case p.NumUsers < 2:
		return fmt.Errorf("dataset: NumUsers %d < 2", p.NumUsers)
	case p.NumVenues < 1:
		return fmt.Errorf("dataset: NumVenues %d < 1", p.NumVenues)
	case p.FriendsPerUser < 1:
		return fmt.Errorf("dataset: FriendsPerUser %d < 1", p.FriendsPerUser)
	case p.NumCategories < 1:
		return fmt.Errorf("dataset: NumCategories %d < 1", p.NumCategories)
	case p.CategoryGroups < 1 || p.CategoryGroups > p.NumCategories:
		return fmt.Errorf("dataset: CategoryGroups %d outside [1,%d]", p.CategoryGroups, p.NumCategories)
	case p.CatsPerVenueMax < 1:
		return fmt.Errorf("dataset: CatsPerVenueMax %d < 1", p.CatsPerVenueMax)
	case p.NumClusters < 1:
		return fmt.Errorf("dataset: NumClusters %d < 1", p.NumClusters)
	case p.CityKm <= 0:
		return fmt.Errorf("dataset: CityKm %v <= 0", p.CityKm)
	case p.Days < 1:
		return fmt.Errorf("dataset: Days %d < 1", p.Days)
	case p.CheckinsPerUserPerDay <= 0:
		return fmt.Errorf("dataset: CheckinsPerUserPerDay %v <= 0", p.CheckinsPerUserPerDay)
	case p.MoveShape <= 0:
		return fmt.Errorf("dataset: MoveShape %v <= 0", p.MoveShape)
	}
	return nil
}

// Venue is a check-in location that can spawn spatial tasks.
type Venue struct {
	ID         model.VenueID
	Loc        geo.Point
	Categories []model.CategoryID
	// Group is the latent semantic group the venue's primary category
	// belongs to; exported so tests can verify LDA recovers structure.
	Group int
}

// Data is a complete simulated dataset.
type Data struct {
	Params   Params
	Graph    *socialgraph.Graph
	Venues   []Venue
	Homes    []geo.Point     // per user
	CheckIns []model.CheckIn // globally sorted by arrival time

	// perUser[u] indexes CheckIns by user, in time order.
	perUser [][]int32
}

// genChunk is the number of venues (or users) one scheduling chunk
// generates. Like lda.docChunk it is part of the determinism contract:
// chunk boundaries decide which split stream drives which item.
const genChunk = 64

// Generate builds a dataset from the parameters. The output is a pure
// function of Params (including Seed) minus the Parallelism knob: the
// venue, user and trajectory stages run in fixed chunks with per-chunk
// streams, so any worker count produces the identical dataset.
func Generate(p Params) (*Data, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	root := randx.New(p.Seed)
	graphRng := root.Split(1)
	venueRng := root.Split(2)
	userRng := root.Split(3)
	moveRng := root.Split(4)
	workers := parallel.Workers(p.Parallelism)

	d := &Data{Params: p}
	d.Params.Parallelism = 0 // runtime knob, not dataset identity
	// Preferential attachment grows the graph edge by edge; it stays
	// sequential (each attachment conditions on all previous degrees).
	d.Graph = socialgraph.GeneratePreferentialAttachment(p.NumUsers, p.FriendsPerUser, graphRng)

	// Cluster centers, with a margin so cluster spread stays in-world.
	centers := make([]geo.Point, p.NumClusters)
	margin := p.CityKm * 0.1
	for i := range centers {
		centers[i] = geo.Point{
			X: margin + venueRng.Float64()*(p.CityKm-2*margin),
			Y: margin + venueRng.Float64()*(p.CityKm-2*margin),
		}
	}
	clusterZipf := randx.NewZipf(p.NumClusters, 0.8)

	// Category taxonomy: contiguous groups, Zipf-skewed popularity both
	// across groups and within a group.
	groupOf := func(c model.CategoryID) int {
		return int(c) * p.CategoryGroups / p.NumCategories
	}
	groupSpan := func(g int) (lo, hi int) {
		lo = g * p.NumCategories / p.CategoryGroups
		hi = (g + 1) * p.NumCategories / p.CategoryGroups
		return lo, hi
	}
	groupZipf := randx.NewZipf(p.CategoryGroups, 0.7)
	// Shared read-only CDF per group (the old code rebuilt this Zipf for
	// every single venue).
	inGroupZipf := make([]*randx.Zipf, p.CategoryGroups)
	for g := range inGroupZipf {
		lo, hi := groupSpan(g)
		inGroupZipf[g] = randx.NewZipf(hi-lo, 0.9)
	}

	// Venues, in chunks with per-chunk streams.
	d.Venues = make([]Venue, p.NumVenues)
	venueLocs := make([]geo.Point, p.NumVenues)
	vrngs := splitChunkStreams(venueRng, parallel.NumChunks(p.NumVenues, genChunk))
	parallel.ForChunks(workers, p.NumVenues, genChunk, func(_, c, lo, hi int) {
		rng := &vrngs[c]
		for i := lo; i < hi; i++ {
			cl := clusterZipf.Draw(rng)
			loc := geo.Point{
				X: clampF(centers[cl].X+rng.NormFloat64()*p.ClusterStd, 0, p.CityKm),
				Y: clampF(centers[cl].Y+rng.NormFloat64()*p.ClusterStd, 0, p.CityKm),
			}
			g := groupZipf.Draw(rng)
			gLo, _ := groupSpan(g)
			nCats := 1 + rng.Intn(p.CatsPerVenueMax)
			cats := make([]model.CategoryID, 0, nCats)
			for len(cats) < nCats {
				cat := model.CategoryID(gLo + inGroupZipf[g].Draw(rng))
				if !containsCat(cats, cat) {
					cats = append(cats, cat)
				}
			}
			sort.Slice(cats, func(a, b int) bool { return cats[a] < cats[b] })
			d.Venues[i] = Venue{ID: model.VenueID(i), Loc: loc, Categories: cats, Group: groupOf(cats[0])}
			venueLocs[i] = loc
		}
	})
	venueGrid := geo.BuildGrid(venueLocs)

	// Users: home location and a sparse preference over category groups,
	// again chunked with per-chunk streams.
	d.Homes = make([]geo.Point, p.NumUsers)
	prefs := make([][]float64, p.NumUsers)
	urngs := splitChunkStreams(userRng, parallel.NumChunks(p.NumUsers, genChunk))
	parallel.ForChunks(workers, p.NumUsers, genChunk, func(_, c, lo, hi int) {
		rng := &urngs[c]
		for u := lo; u < hi; u++ {
			cl := clusterZipf.Draw(rng)
			d.Homes[u] = geo.Point{
				X: clampF(centers[cl].X+rng.NormFloat64()*p.ClusterStd, 0, p.CityKm),
				Y: clampF(centers[cl].Y+rng.NormFloat64()*p.ClusterStd, 0, p.CityKm),
			}
			// Each user strongly prefers 1–3 groups; everything else gets
			// a small floor so exploration still happens.
			pref := make([]float64, p.CategoryGroups)
			for g := range pref {
				pref[g] = 0.05
			}
			liked := 1 + rng.Intn(3)
			for k := 0; k < liked; k++ {
				pref[rng.Intn(p.CategoryGroups)] += 1 + rng.Float64()
			}
			prefs[u] = pref
		}
	})

	// Check-in trajectories: each chunk of users walks with its own
	// stream into a chunk-owned buffer; the buffers are merged in chunk
	// order before the global time sort.
	d.perUser = make([][]int32, p.NumUsers)
	uchunks := parallel.NumChunks(p.NumUsers, genChunk)
	mrngs := splitChunkStreams(moveRng, uchunks)
	chunkCIs := make([][]model.CheckIn, uchunks)
	candBufs := make([][]int, workers)
	parallel.ForChunks(workers, p.NumUsers, genChunk, func(worker, c, lo, hi int) {
		rng := &mrngs[c]
		candBuf := &candBufs[worker]
		var cis []model.CheckIn
		var hours []float64
		for u := lo; u < hi; u++ {
			pos := d.Homes[u]
			for day := 0; day < p.Days; day++ {
				k := poisson(rng, p.CheckinsPerUserPerDay)
				if k == 0 {
					continue
				}
				hours = hours[:0]
				for i := 0; i < k; i++ {
					hours = append(hours, 8+rng.Float64()*14) // active 08:00–22:00
				}
				sort.Float64s(hours)
				for i := 0; i < k; i++ {
					jump := rng.Pareto(p.MoveScaleKm, p.MoveShape)
					if jump > p.CityKm/2 {
						jump = p.CityKm / 2
					}
					theta := rng.Float64() * 2 * math.Pi
					target := geo.Point{
						X: clampF(pos.X+jump*math.Cos(theta), 0, p.CityKm),
						Y: clampF(pos.Y+jump*math.Sin(theta), 0, p.CityKm),
					}
					v := pickVenue(venueGrid, d.Venues, prefs[u], target, jump, rng, candBuf)
					arrive := float64(day)*24 + hours[i]
					cis = append(cis, model.CheckIn{
						User:       model.WorkerID(u),
						Venue:      d.Venues[v].ID,
						Loc:        d.Venues[v].Loc,
						Arrive:     arrive,
						Complete:   arrive + 0.25 + rng.Float64()*0.5,
						Categories: d.Venues[v].Categories,
					})
					pos = d.Venues[v].Loc
				}
			}
		}
		chunkCIs[c] = cis
	})
	d.CheckIns = mergeByArrive(chunkCIs)
	for i, c := range d.CheckIns {
		d.perUser[c.User] = append(d.perUser[c.User], int32(i))
	}
	return d, nil
}

// mergeByArrive returns the check-ins of all chunks, concatenated in
// chunk order and then ordered by arrival time, stably: ties keep their
// concatenated order, as sort.SliceStable by Arrive over the
// concatenation kept it. It sorts (Arrive, chunk, offset) keys, which
// never tie, and then moves each check-in once, where a stable merge
// sort moves whole check-ins through its rotations.
func mergeByArrive(chunks [][]model.CheckIn) []model.CheckIn {
	type key struct {
		at   float64
		c, o int32
	}
	n := 0
	for _, cis := range chunks {
		n += len(cis)
	}
	keys := make([]key, 0, n)
	for c, cis := range chunks {
		for o, ci := range cis {
			keys = append(keys, key{ci.Arrive, int32(c), int32(o)})
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if r := cmp.Compare(a.at, b.at); r != 0 {
			return r
		}
		if r := cmp.Compare(a.c, b.c); r != 0 {
			return r
		}
		return cmp.Compare(a.o, b.o)
	})
	out := make([]model.CheckIn, len(keys))
	for i, k := range keys {
		out[i] = chunks[k.c][k.o]
	}
	return out
}

// splitChunkStreams derives one independent stream per scheduling chunk
// from the stage generator, sequentially and before any chunk runs, so
// the streams do not depend on scheduling order.
func splitChunkStreams(rng *randx.Rand, chunks int) []randx.Rand {
	out := make([]randx.Rand, chunks)
	rng.SplitStreamsInto(out)
	return out
}

// containsCat reports whether cats already holds cat; venue category
// lists are at most CatsPerVenueMax long, so a linear scan beats a map.
func containsCat(cats []model.CategoryID, cat model.CategoryID) bool {
	for _, c := range cats {
		if c == cat {
			return true
		}
	}
	return false
}

// pickVenue selects a venue near the target point, weighted by the user's
// preference for the venue's category group. The search radius expands
// until candidates exist, so it always succeeds on non-empty venue sets.
func pickVenue(grid *geo.Grid, venues []Venue, pref []float64, target geo.Point, jump float64, rng *randx.Rand, buf *[]int) int {
	radius := math.Max(2, jump/3)
	for {
		*buf = grid.Within(target, radius, (*buf)[:0])
		if len(*buf) > 0 {
			break
		}
		radius *= 2
	}
	cands := *buf
	if len(cands) > 24 {
		cands = cands[:24] // Within sorts by index; a fixed prefix keeps determinism
	}
	weights := make([]float64, len(cands))
	for i, v := range cands {
		weights[i] = pref[venues[v].Group]
	}
	return cands[rng.WeightedChoice(weights)]
}

func poisson(rng *randx.Rand, lambda float64) int {
	// Knuth's method; fine for the small rates used here.
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 50 {
			return k
		}
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// NumCheckIns returns the total number of check-in records.
func (d *Data) NumCheckIns() int { return len(d.CheckIns) }

// UserCheckIns returns the indices into CheckIns of user u's records in
// time order. The slice aliases internal storage.
func (d *Data) UserCheckIns(u model.WorkerID) []int32 { return d.perUser[u] }

// HistoriesBefore returns every user's history restricted to check-ins
// strictly before the cutoff (in hours since epoch) — the training data
// for LDA, HA and location entropy when evaluating later days. Users with
// no qualifying record are omitted.
func (d *Data) HistoriesBefore(cutoffHours float64) map[model.WorkerID]model.History {
	out := make(map[model.WorkerID]model.History, len(d.perUser))
	for u := range d.perUser {
		var h model.History
		for _, idx := range d.perUser[u] {
			c := d.CheckIns[idx]
			if c.Arrive >= cutoffHours {
				break
			}
			h = append(h, c)
		}
		if len(h) > 0 {
			out[model.WorkerID(u)] = h
		}
	}
	return out
}

// CheckInsBefore returns all records strictly before the cutoff, in time
// order; the result aliases the dataset's storage.
func (d *Data) CheckInsBefore(cutoffHours float64) []model.CheckIn {
	i := sort.Search(len(d.CheckIns), func(i int) bool {
		return d.CheckIns[i].Arrive >= cutoffHours
	})
	return d.CheckIns[:i]
}

// Documents builds the LDA corpus: one document per user holding the
// category labels of every task the user performed before the cutoff.
// The returned vocabulary size is Params.NumCategories. Document order is
// user order, so Documents()[u] belongs to user u (possibly empty).
func (d *Data) Documents(cutoffHours float64) ([][]int32, int) {
	docs := make([][]int32, len(d.perUser))
	for u := range d.perUser {
		for _, idx := range d.perUser[u] {
			c := d.CheckIns[idx]
			if c.Arrive >= cutoffHours {
				break
			}
			for _, cat := range c.Categories {
				docs[u] = append(docs[u], int32(cat))
			}
		}
	}
	return docs, d.Params.NumCategories
}
