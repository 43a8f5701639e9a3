package atomicio

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dita/internal/faultinject"
)

func TestWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	want := []byte("first content\n")
	if err := WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("read back %q, want %q", got, want)
	}
	// Overwrite: the replacement must fully supersede longer old content.
	if err := WriteFile(path, []byte("2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "2\n" {
		t.Errorf("after overwrite read back %q, want %q", got, "2\n")
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), TempSuffix) {
			t.Errorf("temp file %s left behind by a successful write", e.Name())
		}
	}
}

func TestWriteFileFailureLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "missing-parent", "out.json")
	if err := WriteFile(path, []byte("x"), 0o644); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Errorf("failed write left debris: %v", ents)
	}
}

func TestRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "artifact.json"+TempSuffix)
	if err := os.WriteFile(tmp, []byte("half-writ"), 0o644); err != nil {
		t.Fatal(err)
	}
	registerTemp(tmp)
	RemoveTemps()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("registered temp survived RemoveTemps: %v", err)
	}
	// Idempotent on an empty registry.
	RemoveTemps()
}

func TestSumStableAndDistinct(t *testing.T) {
	a, b := Sum([]byte("payload")), Sum([]byte("payload"))
	if a != b {
		t.Errorf("Sum is not a pure function: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Errorf("Sum length %d, want 64 hex chars", len(a))
	}
	if Sum([]byte("payload2")) == a {
		t.Error("distinct payloads collide")
	}
}

// TestFaultInjectedWritePaths re-executes the test binary with
// DITA_FAULTS armed and asserts on the on-disk outcome of a real
// process death: the pre-rename crash leaves only *.tmp debris (the
// target absent), and the torn write leaves a renamed-but-truncated
// artifact — the two corruption shapes the merge loader must detect.
func TestFaultInjectedWritePaths(t *testing.T) {
	if target := os.Getenv("ATOMICIO_HELPER_PATH"); target != "" {
		payload := []byte(strings.Repeat("0123456789abcdef", 16))
		if err := WriteFile(target, payload, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}

	run := func(spec, target string) error {
		cmd := exec.Command(os.Args[0], "-test.run", "TestFaultInjectedWritePaths")
		cmd.Env = append(os.Environ(),
			"ATOMICIO_HELPER_PATH="+target,
			faultinject.EnvVar+"="+spec)
		_, err := cmd.CombinedOutput()
		return err
	}

	t.Run("pre-rename crash leaves only tmp", func(t *testing.T) {
		dir := t.TempDir()
		target := filepath.Join(dir, "artifact.json")
		if err := run("atomicio.pre-rename:crash", target); err == nil {
			t.Fatal("helper survived its armed crash")
		}
		if _, err := os.Stat(target); !os.IsNotExist(err) {
			t.Errorf("target exists after a pre-rename crash: %v", err)
		}
		if _, err := os.Stat(target + TempSuffix); err != nil {
			t.Errorf("expected tmp debris after a pre-rename crash: %v", err)
		}
	})

	t.Run("torn write leaves truncated artifact", func(t *testing.T) {
		dir := t.TempDir()
		target := filepath.Join(dir, "artifact.json")
		if err := run("atomicio.write:torn", target); err == nil {
			t.Fatal("helper survived its torn-write SIGKILL")
		}
		got, err := os.ReadFile(target)
		if err != nil {
			t.Fatalf("torn artifact missing: %v", err)
		}
		if len(got) != 16*16/2 {
			t.Errorf("torn artifact holds %d bytes, want %d", len(got), 16*16/2)
		}
		if _, err := os.Stat(target + TempSuffix); !os.IsNotExist(err) {
			t.Errorf("tmp debris after a completed torn rename: %v", err)
		}
	})
}

// probe is a small payload; sealedProbe is the same with the checksum
// as an omitempty last field, the form artifacts were once encoded in.
type probe struct {
	Kind  string    `json:"kind"`
	Xs    []float64 `json:"xs"`
	Label string    `json:"label"`
}

type sealedProbe struct {
	probe
	Checksum string `json:"checksum,omitempty"`
}

var testProbe = probe{"probe", []float64{0.1, 2.5e-300, 7}, "a \"quoted\"\nline"}

// sealed returns the test probe sealed, and its checksum.
func sealed(t *testing.T) ([]byte, string) {
	t.Helper()
	data, sum, err := Seal(testProbe)
	if err != nil {
		t.Fatal(err)
	}
	return data, sum
}

// TestSealRoundTrip: sealed bytes verify to the checksum Seal returned,
// unmarshal back into the payload, and hold exactly one newline, the
// last byte; the seal is the compact payload's own sum, and the bytes
// equal the encoding of a struct whose last field is that sum.
func TestSealRoundTrip(t *testing.T) {
	data, sum := sealed(t)
	got, err := Verify(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != sum {
		t.Errorf("Verify returned %s, Seal %s", got, sum)
	}
	if n := strings.Count(string(data), "\n"); n != 1 || data[len(data)-1] != '\n' {
		t.Errorf("sealed bytes hold %d newlines, want exactly one at the end: %q", n, data)
	}
	var back sealedProbe
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, sealedProbe{testProbe, sum}) {
		t.Errorf("sealed bytes unmarshal to %+v", back)
	}
	payload, err := json.Marshal(testProbe)
	if err != nil {
		t.Fatal(err)
	}
	if sum != Sum(payload) {
		t.Errorf("seal %s is not the sum of the compact payload %s", sum, Sum(payload))
	}
	withField, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(append(withField, '\n')) != string(data) {
		t.Errorf("sealed bytes differ from the checksum-field encoding:\n%s\n%s", data, withField)
	}
}

// TestVerifyRejectsDamage: every way sealed bytes can be torn or
// flipped fails verification, with the error naming the damage.
func TestVerifyRejectsDamage(t *testing.T) {
	data, sum := sealed(t)
	for n := 0; n < len(data); n++ {
		if _, err := Verify(data[:n]); err == nil {
			t.Fatalf("prefix of %d of %d bytes verified", n, len(data))
		}
	}
	flip := func(i int, b byte) []byte {
		c := append([]byte(nil), data...)
		c[i] = b
		return c
	}
	at := strings.Index(string(data), sum)
	digit := byte('0')
	if sum[0] == '0' {
		digit = '1'
	}
	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"flipped payload byte", flip(2, data[2]^0x01), "checksum mismatch"},
		{"flipped checksum digit", flip(at, digit), "checksum mismatch"},
		{"missing newline", data[:len(data)-1], "no content checksum"},
		{"doubled newline", append(append([]byte(nil), data...), '\n'), "no content checksum"},
		{"empty", nil, "no content checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Verify(tc.data)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want it to mention %q", err, tc.wantErr)
			}
		})
	}
	if _, err := Verify(flip(at, digit)); err != nil && !strings.Contains(err.Error(), "recorded "+string(digit)+sum[1:12]) {
		t.Errorf("mismatch error does not name the recorded sum: %v", err)
	}
}

// TestSealRejectsNonObjects: only a non-empty JSON object can carry the
// checksum member.
func TestSealRejectsNonObjects(t *testing.T) {
	for _, v := range []any{nil, 3, "str", []int{1}, struct{}{}, map[string]int{}, json.RawMessage(" { } "), make(chan int)} {
		if data, _, err := Seal(v); err == nil {
			t.Errorf("Seal(%#v) = %q, want an error", v, data)
		}
	}
	if _, _, err := Seal(map[string]int{"a": 1}); err != nil {
		t.Errorf("Seal of a one-member map: %v", err)
	}
}
