package lint

import (
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture self-tests assert the EXACT diagnostic set of every
// analyzer: each `// want "regexp"` comment in a fixture must be
// matched by exactly one diagnostic on its line, and no diagnostic may
// appear without a matching want. The subtests run in parallel on
// independent loaders, so the race-enabled CI legs also gate fixture
// parsing and type-checking for data races.

func TestLintMapOrderFixture(t *testing.T)    { testAnalyzerFixture(t, MapOrder, "maporder") }
func TestLintWallClockFixture(t *testing.T)   { testAnalyzerFixture(t, WallClock, "wallclock") }
func TestLintAtomicWriteFixture(t *testing.T) { testAnalyzerFixture(t, AtomicWrite, "atomicwrite") }
func TestLintPoolPurityFixture(t *testing.T)  { testAnalyzerFixture(t, PoolPurity, "poolpurity") }
func TestLintFloatReduceFixture(t *testing.T) { testAnalyzerFixture(t, FloatReduce, "floatreduce") }

// TestLintTestOnlyFixture loads the library and its consumer as one
// program: testonly is whole-program, so the consumer's call is what
// keeps an export off the list.
func TestLintTestOnlyFixture(t *testing.T) {
	testAnalyzerFixture(t, TestOnly, "testonly/internal/lib", "testonly/consumer")
}

// TestLintAtomicWriteExemptsAtomicioPackage pins the one sanctioned
// home of the raw write primitives: a package named atomicio full of
// os.Create/io.WriteString stays diagnostic-free.
func TestLintAtomicWriteExemptsAtomicioPackage(t *testing.T) {
	testAnalyzerFixture(t, AtomicWrite, "atomicio")
}

func testAnalyzerFixture(t *testing.T, analyzer *Analyzer, fixtures ...string) {
	t.Parallel()
	prog, err := loadFixture("testdata/src", fixtures...)
	if err != nil {
		t.Fatalf("load fixtures %v: %v", fixtures, err)
	}
	diags := Run(prog, []*Analyzer{analyzer})
	wants := map[wantKey][]*regexp.Regexp{}
	for _, pkg := range prog.Packages {
		for key, res := range parseWants(t, pkg) {
			wants[key] = append(wants[key], res...)
		}
	}
	for _, d := range diags {
		key := wantKey{file: d.Pos.Filename, line: d.Pos.Line}
		matched := false
		for i, re := range wants[key] {
			if re.MatchString(d.Message) {
				wants[key] = append(wants[key][:i], wants[key][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("missing diagnostic at %s:%d matching %q", key.file, key.line, re)
		}
	}
}

type wantKey struct {
	file string
	line int
}

var (
	wantRE    = regexp.MustCompile(`want\s+((?:"(?:[^"\\]|\\.)*"\s*)+)`)
	wantStrRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

// parseWants collects the `// want "..." ["..."]...` expectations of a
// fixture package, keyed by the comment's line. Expectations in
// _test.go fixture files are ignored like the files themselves.
func parseWants(t *testing.T, pkg *Package) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := map[wantKey][]*regexp.Regexp{}
	for _, file := range pkg.Files {
		if isTestFile(pkg, file.Pos()) {
			continue
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				for _, q := range wantStrRE.FindAllString(m[1], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, s, err)
					}
					key := wantKey{file: pos.Filename, line: pos.Line}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// TestRepoLintClean runs the whole suite over the repository exactly as
// cmd/dita-lint does and requires zero diagnostics: the invariants the
// analyzers enforce hold at HEAD, always.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks every package; skipped in -short")
	}
	prog, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	for _, d := range Run(prog, All()) {
		t.Errorf("%s", d)
	}
}

// TestLintDriverFailsOnViolations runs the real cmd/dita-lint binary
// against the atomicwrite negative fixture (the one fixture whose
// imports are pure stdlib, so the production loader can resolve it) and
// requires a non-zero exit carrying file:line diagnostics — the
// contract the CI lint gate relies on.
func TestLintDriverFailsOnViolations(t *testing.T) {
	t.Parallel()
	cmd := exec.Command("go", "run", "./cmd/dita-lint", "./internal/lint/testdata/src/atomicwrite")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("dita-lint exited 0 on a negative fixture; output:\n%s", out)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("dita-lint did not run: %v\n%s", err, out)
	}
	if !regexp.MustCompile(`atomicwrite\.go:\d+:\d+: \[atomicwrite\] `).Match(out) {
		t.Errorf("driver output has no file:line:col diagnostics; got:\n%s", out)
	}
	for _, frag := range []string{
		"os.WriteFile is not atomic",
		"os.Create opens an in-place overwrite path",
		"io.WriteString to an *os.File writes in place",
	} {
		if !strings.Contains(string(out), frag) {
			t.Errorf("driver output missing %q; got:\n%s", frag, out)
		}
	}
}
