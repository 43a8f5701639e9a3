package dataset

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// loadFiles are the CSV files Save writes and Load reads.
var loadFiles = []string{"params.csv", "homes.csv", "edges.csv", "venues.csv", "checkins.csv"}

// saveTiny saves a dataset small enough to fuzz and returns its
// directory.
func saveTiny(tb testing.TB) string {
	tb.Helper()
	p := smallParams()
	p.NumUsers = 12
	p.NumVenues = 16
	p.Days = 2
	d, err := Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	dir := filepath.Join(tb.TempDir(), "ds")
	if err := d.Save(dir); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// editCSV rewrites one CSV file of a saved dataset through edit.
func editCSV(t *testing.T, dir, name string, edit func([][]string) [][]string) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := legacyWriteCSV(filepath.Join(dir, name), edit(rows)); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRefusesHostileFiles edits one file of a saved dataset per case
// into something Save never writes; Load must return an error for each
// instead of panicking or loading a misread dataset.
func TestLoadRefusesHostileFiles(t *testing.T) {
	set := func(row, col int, v string) func([][]string) [][]string {
		return func(rows [][]string) [][]string {
			rows[row][col] = v
			return rows
		}
	}
	shorten := func(rows [][]string) [][]string {
		rows[1] = rows[1][:len(rows[1])-1]
		return rows
	}
	param := func(key, v string) func([][]string) [][]string {
		return func(rows [][]string) [][]string {
			for _, row := range rows {
				if row[0] == key {
					row[1] = v
				}
			}
			return rows
		}
	}
	for _, tc := range []struct {
		name, file string
		edit       func([][]string) [][]string
	}{
		{"short edge row", "edges.csv", func(rows [][]string) [][]string { return append(rows, []string{"1"}) }},
		{"edge id beyond int32", "edges.csv", func(rows [][]string) [][]string {
			return append(rows, []string{"4294967297", "2"})
		}},
		{"short venue row", "venues.csv", shorten},
		{"venue id off its row", "venues.csv", set(1, 0, "1")},
		{"NaN venue coordinate", "venues.csv", set(1, 1, "NaN")},
		{"category beyond num_categories", "venues.csv", set(1, 3, "60")},
		{"negative category", "venues.csv", set(1, 3, "-1")},
		{"fewer venue rows than num_venues", "params.csv", param("num_venues", "17")},
		{"NaN parameter", "params.csv", param("city_km", "NaN")},
		{"infinite parameter", "params.csv", param("cluster_std", "+Inf")},
		{"short home row", "homes.csv", shorten},
		{"NaN home coordinate", "homes.csv", set(1, 2, "NaN")},
		{"missing home row", "homes.csv", func(rows [][]string) [][]string { return rows[:len(rows)-1] }},
		{"home off its row", "homes.csv", func(rows [][]string) [][]string {
			rows[1], rows[2] = rows[2], rows[1]
			return rows
		}},
		{"short check-in row", "checkins.csv", shorten},
		{"check-in user beyond int32", "checkins.csv", set(1, 0, "4294967296")},
		{"infinite check-in time", "checkins.csv", func(rows [][]string) [][]string {
			rows[len(rows)-1][3] = "+Inf"
			return rows
		}},
		{"check-ins out of arrival order", "checkins.csv", func(rows [][]string) [][]string {
			last := len(rows) - 1
			rows[1], rows[last] = rows[last], rows[1]
			return rows
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := saveTiny(t)
			if _, err := Load(dir); err != nil {
				t.Fatalf("unedited dataset: %v", err)
			}
			editCSV(t, dir, tc.file, tc.edit)
			if _, err := Load(dir); err == nil {
				t.Fatalf("Load accepted %s", tc.file)
			}
		})
	}
}

// FuzzLoad replaces one CSV file of a tiny saved dataset with fuzzed
// bytes. Load must return an error or a dataset that a Save/Load round
// trip leaves unchanged.
func FuzzLoad(f *testing.F) {
	src := saveTiny(f)
	files := make([][]byte, len(loadFiles))
	for i, name := range loadFiles {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			f.Fatal(err)
		}
		files[i] = b
		f.Add(uint8(i), b)
	}
	f.Add(uint8(2), []byte("from,to\n1\n"))
	f.Add(uint8(2), []byte("from,to\n4294967297,2\n"))
	f.Add(uint8(0), []byte("key,value\nnum_users,"+strconv.Itoa(1<<30)+"\n"))
	f.Fuzz(func(t *testing.T, file uint8, data []byte) {
		dir := t.TempDir()
		k := int(file) % len(loadFiles)
		for i, name := range loadFiles {
			b := files[i]
			if i == k {
				b = data
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d, err := Load(dir)
		if err != nil {
			return
		}
		out := filepath.Join(t.TempDir(), "again")
		if err := d.Save(out); err != nil {
			t.Fatal(err)
		}
		again, err := Load(out)
		if err != nil {
			t.Fatalf("reloading the saved dataset: %v", err)
		}
		if !reflect.DeepEqual(d, again) {
			t.Fatal("a Save/Load round trip changed the dataset")
		}
	})
}
