package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dita/internal/atomicio"
	"dita/internal/geo"
	"dita/internal/model"
	"dita/internal/socialgraph"
)

// Save writes the dataset to a directory as four CSV files — params.csv,
// edges.csv, venues.csv and checkins.csv — a layout deliberately close to
// the public Brightkite/FourSquare dumps so the loader could ingest real
// data with a thin conversion step.
func (d *Data) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: save: %w", err)
	}
	if err := writeCSV(filepath.Join(dir, "params.csv"), d.paramRows()); err != nil {
		return err
	}
	edgeRows := [][]string{{"from", "to"}}
	for _, e := range d.Graph.Edges() {
		edgeRows = append(edgeRows, []string{itoa(int(e.From)), itoa(int(e.To))})
	}
	if err := writeCSV(filepath.Join(dir, "edges.csv"), edgeRows); err != nil {
		return err
	}
	venueRows := [][]string{{"id", "x", "y", "categories"}}
	for _, v := range d.Venues {
		venueRows = append(venueRows, []string{
			itoa(int(v.ID)), ftoa(v.Loc.X), ftoa(v.Loc.Y), catsToField(v.Categories),
		})
	}
	if err := writeCSV(filepath.Join(dir, "venues.csv"), venueRows); err != nil {
		return err
	}
	ciRows := [][]string{{"user", "venue", "arrive", "complete"}}
	for _, c := range d.CheckIns {
		ciRows = append(ciRows, []string{
			itoa(int(c.User)), itoa(int(c.Venue)), ftoa(c.Arrive), ftoa(c.Complete),
		})
	}
	if err := writeCSV(filepath.Join(dir, "checkins.csv"), ciRows); err != nil {
		return err
	}
	homeRows := [][]string{{"user", "x", "y"}}
	for u, h := range d.Homes {
		homeRows = append(homeRows, []string{itoa(u), ftoa(h.X), ftoa(h.Y)})
	}
	return writeCSV(filepath.Join(dir, "homes.csv"), homeRows)
}

// Load reads a dataset previously written by Save. It refuses any file
// Save could not have written rather than misreading it: rows with the
// wrong field count, ids outside int32, venues or homes out of row
// position, non-finite coordinates, times or parameters, categories
// outside [0, NumCategories), and check-ins out of arrival order (the
// time-cutoff queries binary-search and stop early on that order).
func Load(dir string) (*Data, error) {
	d := &Data{}
	params, err := readCSV(filepath.Join(dir, "params.csv"), 2)
	if err != nil {
		return nil, err
	}
	if err := d.applyParamRows(params); err != nil {
		return nil, err
	}
	// Homes come first: Save writes one row per user, so the row count
	// bounds NumUsers before anything is allocated from it.
	homeRows, err := readCSV(filepath.Join(dir, "homes.csv"), 3)
	if err != nil {
		return nil, err
	}
	if len(homeRows)-1 != d.Params.NumUsers {
		return nil, fmt.Errorf("dataset: %d home rows, want num_users %d", len(homeRows)-1, d.Params.NumUsers)
	}
	d.Homes = make([]geo.Point, d.Params.NumUsers)
	for i, row := range homeRows[1:] {
		u, e1 := parseID(row[0])
		x, e2 := parseFinite(row[1])
		y, e3 := parseFinite(row[2])
		if e1 != nil || e2 != nil || e3 != nil || u != i {
			return nil, fmt.Errorf("dataset: bad home row %v", row)
		}
		d.Homes[u] = geo.Point{X: x, Y: y}
	}
	edgeRows, err := readCSV(filepath.Join(dir, "edges.csv"), 2)
	if err != nil {
		return nil, err
	}
	var edges []socialgraph.Edge
	for _, row := range edgeRows[1:] {
		f, err1 := parseID(row[0])
		t, err2 := parseID(row[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("dataset: bad edge row %v", row)
		}
		edges = append(edges, socialgraph.Edge{From: int32(f), To: int32(t)})
	}
	d.Graph, err = socialgraph.New(d.Params.NumUsers, edges)
	if err != nil {
		return nil, err
	}
	venueRows, err := readCSV(filepath.Join(dir, "venues.csv"), 4)
	if err != nil {
		return nil, err
	}
	if len(venueRows)-1 != d.Params.NumVenues {
		return nil, fmt.Errorf("dataset: %d venue rows, want num_venues %d", len(venueRows)-1, d.Params.NumVenues)
	}
	groupOf := func(c model.CategoryID) int {
		return int(c) * d.Params.CategoryGroups / d.Params.NumCategories
	}
	for i, row := range venueRows[1:] {
		id, e1 := parseID(row[0])
		x, e2 := parseFinite(row[1])
		y, e3 := parseFinite(row[2])
		cats, e4 := fieldToCats(row[3], d.Params.NumCategories)
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil || id != i {
			return nil, fmt.Errorf("dataset: bad venue row %v", row)
		}
		v := Venue{ID: model.VenueID(id), Loc: geo.Point{X: x, Y: y}, Categories: cats}
		if len(cats) > 0 {
			v.Group = groupOf(cats[0])
		}
		d.Venues = append(d.Venues, v)
	}
	ciRows, err := readCSV(filepath.Join(dir, "checkins.csv"), 4)
	if err != nil {
		return nil, err
	}
	d.perUser = make([][]int32, d.Params.NumUsers)
	for _, row := range ciRows[1:] {
		u, e1 := parseID(row[0])
		v, e2 := parseID(row[1])
		ar, e3 := parseFinite(row[2])
		co, e4 := parseFinite(row[3])
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil ||
			u < 0 || u >= d.Params.NumUsers || v < 0 || v >= len(d.Venues) {
			return nil, fmt.Errorf("dataset: bad check-in row %v", row)
		}
		if n := len(d.CheckIns); n > 0 && ar < d.CheckIns[n-1].Arrive {
			return nil, fmt.Errorf("dataset: check-in row %v arrives before its predecessor", row)
		}
		ven := d.Venues[v]
		d.perUser[u] = append(d.perUser[u], int32(len(d.CheckIns)))
		d.CheckIns = append(d.CheckIns, model.CheckIn{
			User:       model.WorkerID(u),
			Venue:      ven.ID,
			Loc:        ven.Loc,
			Arrive:     ar,
			Complete:   co,
			Categories: ven.Categories,
		})
	}
	return d, nil
}

// parseID parses an entity id, which must fit the int32 id types.
func parseID(s string) (int, error) {
	n, err := strconv.ParseInt(s, 10, 32)
	return int(n), err
}

// parseFinite parses a coordinate, time or parameter, which must be
// finite.
func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("non-finite value %q", s)
	}
	return f, err
}

func (d *Data) paramRows() [][]string {
	p := d.Params
	return [][]string{
		{"key", "value"},
		{"name", p.Name},
		{"num_users", itoa(p.NumUsers)},
		{"num_venues", itoa(p.NumVenues)},
		{"friends_per_user", itoa(p.FriendsPerUser)},
		{"num_categories", itoa(p.NumCategories)},
		{"category_groups", itoa(p.CategoryGroups)},
		{"cats_per_venue_max", itoa(p.CatsPerVenueMax)},
		{"num_clusters", itoa(p.NumClusters)},
		{"city_km", ftoa(p.CityKm)},
		{"cluster_std", ftoa(p.ClusterStd)},
		{"days", itoa(p.Days)},
		{"checkins_per_user_per_day", ftoa(p.CheckinsPerUserPerDay)},
		{"move_shape", ftoa(p.MoveShape)},
		{"move_scale_km", ftoa(p.MoveScaleKm)},
		{"seed", strconv.FormatUint(p.Seed, 10)},
	}
}

func (d *Data) applyParamRows(rows [][]string) error {
	var err error
	geti := func(v string) int {
		var n int
		n, err = strconv.Atoi(v)
		return n
	}
	getf := func(v string) float64 {
		var f float64
		f, err = parseFinite(v)
		return f
	}
	for _, row := range rows[1:] {
		k, v := row[0], row[1]
		switch k {
		case "name":
			d.Params.Name = v
		case "num_users":
			d.Params.NumUsers = geti(v)
		case "num_venues":
			d.Params.NumVenues = geti(v)
		case "friends_per_user":
			d.Params.FriendsPerUser = geti(v)
		case "num_categories":
			d.Params.NumCategories = geti(v)
		case "category_groups":
			d.Params.CategoryGroups = geti(v)
		case "cats_per_venue_max":
			d.Params.CatsPerVenueMax = geti(v)
		case "num_clusters":
			d.Params.NumClusters = geti(v)
		case "city_km":
			d.Params.CityKm = getf(v)
		case "cluster_std":
			d.Params.ClusterStd = getf(v)
		case "days":
			d.Params.Days = geti(v)
		case "checkins_per_user_per_day":
			d.Params.CheckinsPerUserPerDay = getf(v)
		case "move_shape":
			d.Params.MoveShape = getf(v)
		case "move_scale_km":
			d.Params.MoveScaleKm = getf(v)
		case "seed":
			d.Params.Seed, err = strconv.ParseUint(v, 10, 64)
		default:
			return fmt.Errorf("dataset: unknown params key %q", k)
		}
		if err != nil {
			return fmt.Errorf("dataset: params key %q: %w", k, err)
		}
	}
	return d.Params.Validate()
}

// writeCSV encodes the rows in memory and lands them atomically (temp +
// fsync + rename via atomicio): a dita-datagen killed mid-save leaves
// either the previous dataset file or none, never a truncated CSV the
// loader would half-parse. The encoding is byte-identical to the old
// direct-to-file csv.Writer path.
func writeCSV(path string, rows [][]string) error {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(rows); err != nil {
		return fmt.Errorf("dataset: write %s: %w", path, err)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("dataset: flush %s: %w", path, err)
	}
	if err := atomicio.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("dataset: write %s: %w", path, err)
	}
	return nil
}

// readCSV reads a CSV file whose every row, header included, has the
// given field count (0 takes the count from the first row).
func readCSV(path string, fields int) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = fields
	rows, err := r.ReadAll()
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("dataset: read %s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: %s is empty", path)
	}
	return rows, nil
}

func catsToField(cats []model.CategoryID) string {
	parts := make([]string, len(cats))
	for i, c := range cats {
		parts[i] = itoa(int(c))
	}
	return strings.Join(parts, ";")
}

// fieldToCats parses a venue's category list; every category must lie
// in [0, numCats).
func fieldToCats(s string, numCats int) ([]model.CategoryID, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ";")
	cats := make([]model.CategoryID, len(parts))
	for i, p := range parts {
		n, err := parseID(p)
		if err != nil {
			return nil, err
		}
		if n < 0 || n >= numCats {
			return nil, fmt.Errorf("category %d outside [0, %d)", n, numCats)
		}
		cats[i] = model.CategoryID(n)
	}
	return cats, nil
}

func itoa(n int) string     { return strconv.Itoa(n) }
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
