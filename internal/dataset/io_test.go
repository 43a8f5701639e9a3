package dataset

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"

	"dita/internal/atomicio"
)

// legacyWriteCSV is the pre-atomicio code path writeCSV replaced — a
// csv.Writer streaming straight into os.Create. It is kept here verbatim
// as the byte-identity reference: the atomic path must emit exactly the
// bytes this one did.
func legacyWriteCSV(path string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestWriteCSVByteIdenticalToLegacyPath hashes every file of a real
// saved dataset against the old direct-to-file csv.Writer encoding of
// the same rows: routing the save through atomicio must not change a
// single emitted byte, or every existing dataset hash and diff-based
// workflow would silently break.
func TestWriteCSVByteIdenticalToLegacyPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	p := smallParams()
	p.NumUsers = 60
	p.NumVenues = 80
	p.Days = 4
	d := generate(t, p)
	if err := d.Save(dir); err != nil {
		t.Fatal(err)
	}

	legacyDir := t.TempDir()
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 5 {
		t.Fatalf("Save emitted %d CSV files, want 5: %v", len(files), files)
	}
	for _, file := range files {
		name := filepath.Base(file)
		rows, err := readCSV(file, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		legacy := filepath.Join(legacyDir, name)
		if err := legacyWriteCSV(legacy, rows); err != nil {
			t.Fatalf("%s: legacy write: %v", name, err)
		}
		got, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(legacy)
		if err != nil {
			t.Fatal(err)
		}
		if atomicio.Sum(got) != atomicio.Sum(want) {
			t.Errorf("%s: atomic save output diverges from the legacy csv.Writer encoding (%d vs %d bytes)",
				name, len(got), len(want))
		}
	}
}

// TestWriteCSVQuotedFieldsMatchLegacy pins the encoding on fields the
// generator never emits but the CSV layer must still agree on — commas,
// quotes, embedded newlines — so byte-identity does not hinge on the
// current generator's character set.
func TestWriteCSVQuotedFieldsMatchLegacy(t *testing.T) {
	rows := [][]string{
		{"key", "value"},
		{"plain", "42"},
		{"comma", "a,b"},
		{"quote", `say "hi"`},
		{"newline", "line1\nline2"},
		{"unicode", "café ✓"},
		{"empty", ""},
	}
	dir := t.TempDir()
	atomic := filepath.Join(dir, "atomic.csv")
	legacy := filepath.Join(dir, "legacy.csv")
	if err := writeCSV(atomic, rows); err != nil {
		t.Fatal(err)
	}
	if err := legacyWriteCSV(legacy, rows); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(atomic)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("atomic writeCSV:\n%q\nlegacy:\n%q", got, want)
	}
}
