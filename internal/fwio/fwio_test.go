package fwio

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dita/internal/assign"
	"dita/internal/atomicio"
	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/experiments"
	"dita/internal/lda"
	"dita/internal/rrr"
)

// testData generates the small shared dataset every test here trains
// on; cached across tests in the package run.
var testDataCache *dataset.Data

func testData(t *testing.T) *dataset.Data {
	t.Helper()
	if testDataCache != nil {
		return testDataCache
	}
	p := dataset.BrightkiteLike()
	p.NumUsers = 150
	p.NumVenues = 180
	p.Days = 6
	p.Seed = 23
	data, err := dataset.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	testDataCache = data
	return data
}

const testCutoff = 5 * 24.0

func trainConfig(par int) core.Config {
	return core.Config{
		LDA:                     lda.Config{Topics: 8, TrainIters: 15},
		TopWillingnessLocations: 8,
		Parallelism:             par,
	}
}

func trainAt(t *testing.T, data *dataset.Data, cfg core.Config) *core.Framework {
	t.Helper()
	fw, err := core.Train(core.TrainingDataFrom(data, testCutoff), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// TestArtifactBitIdenticalAcrossParallelism: training at any worker
// count must seal into the very same bytes — the artifact is the
// model's identity, and Parallelism is not part of it.
func TestArtifactBitIdenticalAcrossParallelism(t *testing.T) {
	data := testData(t)
	base, baseSum, err := Encode(trainAt(t, data, trainConfig(1)), "test-src")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 8} {
		got, sum, err := Encode(trainAt(t, data, trainConfig(par)), "test-src")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, base) {
			t.Fatalf("artifact bytes differ between Parallelism 1 and %d", par)
		}
		if sum != baseSum {
			t.Fatalf("checksum differs between Parallelism 1 and %d: %s vs %s", par, sum, baseSum)
		}
	}
}

// TestRoundTripDeepEqual: decoding an artifact must reproduce the
// trained framework exactly — every component, the stored config, and
// the theta aliasing — and the reloaded framework's assignments must be
// indistinguishable from the trained one's.
func TestRoundTripDeepEqual(t *testing.T) {
	data := testData(t)
	fw := trainAt(t, data, trainConfig(1))
	raw, sum, err := Encode(fw, "test-src")
	if err != nil {
		t.Fatal(err)
	}
	fw2, info, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != "test-src" || info.Checksum != sum {
		t.Errorf("info %+v, want source test-src checksum %s", info, sum)
	}
	if !reflect.DeepEqual(fw, fw2) {
		t.Fatal("decoded framework is not DeepEqual to the trained one")
	}
	// Theta aliasing must be rebuilt, not copied: a loaded framework's
	// rows live in its own LDA model exactly as after Train.
	theta := fw2.Theta()
	for u, row := range theta {
		if row != nil && &row[0] != &fw2.LDA().DocTopics(u)[0] {
			t.Fatalf("theta row %d is a copy, not an alias into the LDA model", u)
		}
	}

	inst, err := data.Snapshot(dataset.SnapshotParams{
		Day: 5, NumTasks: 50, NumWorkers: 40, ValidHours: 5, RadiusKm: 25, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range assign.Algorithms {
		setA, mA := fw.Assign(inst, alg, 7)
		setB, mB := fw2.Assign(inst, alg, 7)
		if !reflect.DeepEqual(setA, setB) {
			t.Fatalf("%v: loaded framework's assignment diverged from the trained one's", alg)
		}
		mA.CPU, mB.CPU = 0, 0
		if mA != mB {
			t.Fatalf("%v: metrics %+v vs %+v", alg, mA, mB)
		}
	}
}

// TestLoadVersusRetrainSweep is the one-train-many-serve acceptance
// gate: a sweep served by a loaded artifact must be bit-identical
// (CPU wall clock aside) to one served by an in-process retrain, at
// every evaluation parallelism.
func TestLoadVersusRetrainSweep(t *testing.T) {
	data := testData(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "fw.json")
	if _, err := Write(path, trainAt(t, data, trainConfig(2)), "test-src"); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	sweeps := experiments.Sweeps{Tasks: []int{40, 80}}
	for _, par := range []int{1, 2, 8} {
		p := experiments.Params{
			NumTasks: 60, NumWorkers: 50, ValidHours: 5, RadiusKm: 25,
			Days: []int{5}, Seed: 42, Parallelism: par,
		}
		retrained, err := experiments.NewRunner(data, trainConfig(par), p)
		if err != nil {
			t.Fatal(err)
		}
		served, err := experiments.NewRunnerFromFramework(data, loaded, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := retrained.RunFigureRaw(9, sweeps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := served.RunFigureRaw(9, sweeps)
		if err != nil {
			t.Fatal(err)
		}
		stripCPU(want)
		stripCPU(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: served sweep diverged from retrained sweep", par)
		}
	}
}

func stripCPU(sr *experiments.SweepRaw) {
	for i := range sr.Jobs {
		for j := range sr.Jobs[i].Metrics {
			sr.Jobs[i].Metrics[j].CPU = 0
		}
	}
}

// TestEncodeRejectsBrokenThetaAliasing: the artifact stores only a
// theta index, so a framework whose theta rows diverged from its LDA
// model cannot be encoded faithfully and must be refused.
func TestEncodeRejectsBrokenThetaAliasing(t *testing.T) {
	data := testData(t)
	fw := trainAt(t, data, trainConfig(1))
	theta := make([][]float64, len(fw.Theta()))
	for u, row := range fw.Theta() {
		if row == nil {
			continue
		}
		theta[u] = append([]float64(nil), row...)
	}
	for u := range theta {
		if theta[u] != nil {
			theta[u][0] += 0.25 // diverge one row from the model
			break
		}
	}
	broken, err := core.Restore(fw.Config(), fw.Graph(), fw.LDA(), theta, fw.Mobility(), fw.Entropy(), fw.Propagation())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Encode(broken, ""); err == nil || !strings.Contains(err.Error(), "theta row") {
		t.Fatalf("encoding a framework with diverged theta rows: got err %v", err)
	}
}

// corrupt mutates a sealed artifact through its generic JSON form and
// re-serializes it without resealing, so the seal no longer matches —
// or the envelope itself is broken.
func corrupt(t *testing.T, raw []byte, mutate func(m map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	mutate(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// reseal mutates a decoded artifact and seals it again: the checksum
// holds, so only the component checks stand between the bytes and the
// framework — the position of anyone who recomputes the plain SHA-256.
func reseal(t *testing.T, raw []byte, mutate func(a *artifact)) []byte {
	t.Helper()
	var a artifact
	if err := json.Unmarshal(raw, &a); err != nil {
		t.Fatal(err)
	}
	mutate(&a)
	out, _, err := atomicio.Seal(&a)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDecodeAcceptsSelfSealedBytes: the seal detects damaged writes, not
// tampering, so bytes whose own seal verifies load even when they are
// not the encoding Encode writes — here the members reordered
// alphabetically and resealed — and yield the same framework.
func TestDecodeAcceptsSelfSealedBytes(t *testing.T) {
	fw := trainAt(t, testData(t), trainConfig(1))
	raw, _, err := Encode(fw, "test-src")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "checksum")
	reordered, sum, err := atomicio.Seal(m)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(reordered, raw) {
		t.Fatal("reordered artifact equals the encoded one")
	}
	got, info, err := Decode(reordered)
	if err != nil {
		t.Fatal(err)
	}
	if info.Checksum != sum || !reflect.DeepEqual(got, fw) {
		t.Errorf("reordered artifact decoded to checksum %s (want %s) or a different framework", info.Checksum, sum)
	}
}

// TestLoadRejectsCorruptArtifacts: every way an artifact can go bad on
// disk must be rejected at load — naming the offending path, never
// partially used.
func TestLoadRejectsCorruptArtifacts(t *testing.T) {
	data := testData(t)
	fw := trainAt(t, data, trainConfig(1))
	raw, sum, err := Encode(fw, "test-src")
	if err != nil {
		t.Fatal(err)
	}
	// Flip one hex digit of the recorded checksum: the smallest possible
	// corruption that still parses as a sealed artifact.
	flip := byte('0')
	if sum[0] == '0' {
		flip = '1'
	}
	flippedSum := string(flip) + sum[1:]
	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"truncated", raw[:len(raw)/2], "reading framework artifact"},
		{"bit-flipped", bytes.Replace(raw, []byte(sum), []byte(flippedSum), 1), "checksum mismatch"},
		{"unsealed", corrupt(t, raw, func(m map[string]any) { delete(m, "checksum") }), "no content checksum"},
		{"version-skew", corrupt(t, raw, func(m map[string]any) { m["version"] = 2 }), "version 2 not supported"},
		{"wrong-kind", corrupt(t, raw, func(m map[string]any) { m["kind"] = "dita-shard" }), `kind "dita-shard"`},
		// A node count int32 ids cannot address used to panic in the
		// graph's CSR allocation.
		{"resealed-huge-graph", reseal(t, raw, func(a *artifact) { a.Graph.N = math.MaxInt }), "artifact graph"},
		// HA models that are not probabilistic used to load and yield
		// negative or greater-than-one Pwil, and from those non-finite
		// or negative IA edge costs.
		{"resealed-negative-stationary", reseal(t, raw, func(a *artifact) { a.Mobility.Workers[0].Stationary[0] = -0.5 }), "outside [0, 1]"},
		{"resealed-stationary-above-one", reseal(t, raw, func(a *artifact) { a.Mobility.Workers[0].Stationary[0] = 1.5 }), "outside [0, 1]"},
		{"resealed-stationary-mass-above-one", reseal(t, raw, func(a *artifact) {
			st := a.Mobility.Workers[0].Stationary
			st[0] = 1
			st = append(st, 0.5)
			a.Mobility.Workers[0].Stationary = st
			a.Mobility.Workers[0].Locs = append(a.Mobility.Workers[0].Locs, a.Mobility.Workers[0].Locs[0])
		}), "summing to"},
		{"resealed-zero-shape", reseal(t, raw, func(a *artifact) { a.Mobility.Workers[0].Shape = 0 }), "shape 0 outside"},
		{"resealed-negative-shape", reseal(t, raw, func(a *artifact) { a.Mobility.Workers[0].Shape = -2 }), "shape -2 outside"},
		{"resealed-huge-shape", reseal(t, raw, func(a *artifact) { a.Mobility.Workers[0].Shape = 1e300 }), "shape 1e+300 outside"},
		// The default shape gets no pass: Fit clamps it like a fitted one.
		{"resealed-default-shape-above-max", reseal(t, raw, func(a *artifact) {
			a.Mobility.Config.DefaultShape, a.Mobility.Config.MaxShape = 2, 1
			for i := range a.Mobility.Workers {
				a.Mobility.Workers[i].Shape = 2
			}
		}), "shape 2 outside [0.05, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.name+".json")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			fw, _, err := Load(path)
			if err == nil {
				t.Fatal("corrupt artifact loaded without error")
			}
			if fw != nil {
				t.Error("corrupt artifact returned a non-nil framework")
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error does not name the offending path %s: %v", path, err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %v does not mention %q", err, tc.wantErr)
			}
		})
	}
	if _, _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing file succeeded")
	}
}

// FuzzDecode drives Decode, the loader of every framework artifact
// handed to a server or a sweep, over arbitrary bytes. An input that is
// a JSON object is resealed first, so the seal — which anyone can
// recompute — holds and the fuzzer reaches the kind, version and
// component validation behind it. Decode must return an error or a
// framework, never panic, and a framework it accepts must encode and
// decode again. The seeds are a small sealed artifact and truncations
// of it; the artifact is trained on a shrunk copy of the test dataset
// (12 users, capped RRR sets), a few kilobytes the fuzzer can mutate
// quickly.
func FuzzDecode(f *testing.F) {
	p := dataset.BrightkiteLike()
	p.NumUsers, p.NumVenues, p.Days, p.Seed = 12, 10, 2, 23
	data, err := dataset.Generate(p)
	if err != nil {
		f.Fatal(err)
	}
	fw, err := core.Train(core.TrainingDataFrom(data, 24), core.Config{
		LDA:                     lda.Config{Topics: 2, TrainIters: 2},
		RPO:                     rrr.Params{MaxSets: 20},
		TopWillingnessLocations: 2,
		Parallelism:             1,
	})
	if err != nil {
		f.Fatal(err)
	}
	raw, _, err := Encode(fw, "test-src")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, n := range []int{0, 1, len(raw) / 3, len(raw) - 2} {
		f.Add(raw[:n])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if sealed, _, err := atomicio.Seal(json.RawMessage(b)); err == nil {
			b = sealed
		}
		fw, info, err := Decode(b)
		if err != nil {
			if fw != nil {
				t.Fatalf("Decode failed (%v) but returned a framework", err)
			}
			return
		}
		again, _, err := Encode(fw, info.Source)
		if err != nil {
			t.Fatalf("accepted framework does not encode: %v", err)
		}
		if _, _, err := Decode(again); err != nil {
			t.Fatalf("re-encoded framework does not decode: %v", err)
		}
	})
}
