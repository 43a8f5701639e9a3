package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dita/internal/atomicio"
	"dita/internal/core"
)

// sealedArtifact builds a small, fully synthetic sealed artifact (no
// training involved) and returns it with its on-disk bytes.
func sealedArtifact(t *testing.T) (*ShardResult, []byte) {
	t.Helper()
	m := func(alg string, v float64) []core.Metrics {
		return []core.Metrics{{Algorithm: alg, Assigned: 2, AI: v, AP: v / 2, TravelKm: 3 * v}}
	}
	sr := &ShardResult{
		Shard: Shard{Index: 0, Count: 1},
		Seed:  42,
		Figures: []*SweepRaw{{
			Fig: 5, Figure: "Fig. 5", Dataset: "BK", XLabel: "|S|",
			Series: []string{"IA"}, Xs: []float64{1, 2}, Days: []int{3},
			Jobs: []JobMetrics{
				{X: 1, Day: 3, Metrics: m("IA", 0.25)},
				{X: 2, Day: 3, Metrics: m("IA", 0.5)},
			},
		}},
	}
	data, err := sr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return sr, data
}

// TestLoadShardFileCorruption is the corrupted-artifact table: every
// way a shard artifact can be damaged on disk must be rejected with an
// error naming the offending path — and the intact artifact must load
// back exactly.
func TestLoadShardFileCorruption(t *testing.T) {
	sr, data := sealedArtifact(t)

	unsealed, err := json.MarshalIndent(&ShardResult{Shard: Shard{Index: 0, Count: 1}, Seed: 42}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	// The indented, sealed form older builds wrote: intact, but its seal
	// is not the shared one, so it is refused as unsealed.
	indented, err := json.MarshalIndent(sr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	older := fmt.Appendf(indented[:len(indented)-2:len(indented)-2], ",\n  \"checksum\": %q\n}\n", atomicio.Sum(indented))

	// A checksum-breaking but JSON-preserving edit: change a recorded
	// metric value without resealing.
	tampered := bytes.Replace(data, []byte(`"assigned":2`), []byte(`"assigned":3`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper edit did not apply")
	}

	cases := []struct {
		name    string
		content []byte
		wantErr string // "" = must load
	}{
		{"intact", data, ""},
		{"truncated JSON", data[:2*len(data)/3], "unexpected end of JSON input"},
		{"empty file", nil, "unexpected end of JSON input"},
		{"checksum mismatch", tampered, "checksum mismatch"},
		{"missing checksum", append(unsealed, '\n'), "no content checksum"},
		{"older indented seal", older, "no content checksum"},
		{"invalid shard spec", corruptShardSpec(t, data), "outside 0..0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "shard_0.json")
			if err := os.WriteFile(path, tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := LoadShardFile(path)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("intact artifact refused: %v", err)
				}
				if !reflect.DeepEqual(got, sr) {
					t.Error("loaded artifact differs from the sealed original")
				}
				return
			}
			if err == nil {
				t.Fatalf("corrupted artifact accepted: %+v", got)
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error does not name the offending path %q: %v", path, err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %v, want it to mention %q", err, tc.wantErr)
			}
		})
	}

	t.Run("missing file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "absent.json")
		if _, err := LoadShardFile(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("missing file: err = %v, want a path-naming error", err)
		}
	})
}

// corruptShardSpec rewrites the artifact to carry an invalid shard
// index, resealing so only the spec validation can reject it.
func corruptShardSpec(t *testing.T, data []byte) []byte {
	t.Helper()
	var sr ShardResult
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	sr.Shard.Index = 5
	out, err := sr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGlobArtifactsSkipsTempDebris: leftover *.tmp files from crashed
// writers must be surfaced separately from — never mixed into — the
// loadable artifact set.
func TestGlobArtifactsSkipsTempDebris(t *testing.T) {
	dir := t.TempDir()
	_, data := sealedArtifact(t)
	good := filepath.Join(dir, "shard_0.json")
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	debris := filepath.Join(dir, "shard_1.json"+atomicio.TempSuffix)
	if err := os.WriteFile(debris, data[:10], 0o644); err != nil {
		t.Fatal(err)
	}

	paths, tmps, err := GlobArtifacts(filepath.Join(dir, "shard_*"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(paths, []string{good}) {
		t.Errorf("paths = %v, want just %s", paths, good)
	}
	if !reflect.DeepEqual(tmps, []string{debris}) {
		t.Errorf("tmps = %v, want just %s", tmps, debris)
	}

	set, err := LoadShardSet(paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Fatalf("loaded %d artifacts, want 1", len(set))
	}

	if _, _, err := GlobArtifacts("[bad-pattern"); err == nil {
		t.Error("malformed glob accepted")
	}
}

// TestLoadShardSetStopsAtFirstBadArtifact: one corrupted member fails
// the whole set load, naming the culprit.
func TestLoadShardSetStopsAtFirstBadArtifact(t *testing.T) {
	dir := t.TempDir()
	_, data := sealedArtifact(t)
	good := filepath.Join(dir, "a.json")
	bad := filepath.Join(dir, "b.json")
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardSet([]string{good, bad}); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("set with a truncated member: err = %v, want it to name %s", err, bad)
	}
}
