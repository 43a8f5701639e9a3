package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dita/internal/atomicio"
	"dita/internal/core"
)

func openTestJournal(t *testing.T, path, sig string) *Journal {
	t.Helper()
	j, err := OpenJournal(path, sig, Shard{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0.json.journal")
	j := openTestJournal(t, path, "sig-A")
	if j.Resumed() != 0 || j.Truncated {
		t.Fatalf("fresh journal: resumed %d, truncated %v", j.Resumed(), j.Truncated)
	}
	ms := []core.Metrics{{Algorithm: "IA", Assigned: 7, AI: 0.125}}
	if err := j.Record("BK", 5, 1.5, 25, ms); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("BK", 9, 2, 26, []core.Metrics{{Algorithm: "MTA"}}); err != nil {
		t.Fatal(err)
	}
	if got, ok := j.Lookup("BK", 5, 1.5, 25); !ok || !reflect.DeepEqual(got, ms) {
		t.Errorf("Lookup after Record = %+v, %v", got, ok)
	}
	if _, ok := j.Lookup("BK", 5, 1.5, 26); ok {
		t.Error("Lookup invented an unrecorded job")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	back := openTestJournal(t, path, "sig-A")
	defer back.Close()
	if back.Resumed() != 2 || back.Jobs() != 2 || back.Truncated {
		t.Fatalf("replayed journal: resumed %d, jobs %d, truncated %v", back.Resumed(), back.Jobs(), back.Truncated)
	}
	if got, ok := back.Lookup("BK", 5, 1.5, 25); !ok || !reflect.DeepEqual(got, ms) {
		t.Errorf("replayed Lookup = %+v, %v — metrics must survive the journal bit-exactly", got, ok)
	}
}

func TestJournalRejectsForeignRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0.json.journal")
	j := openTestJournal(t, path, "sig-A")
	j.Close()

	if _, err := OpenJournal(path, "sig-B", Shard{}, 42); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("signature mismatch: err = %v, want a path-naming error", err)
	}
	if _, err := OpenJournal(path, "sig-A", Shard{Index: 1, Count: 2}, 42); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Errorf("shard mismatch: err = %v", err)
	}
	if _, err := OpenJournal(path, "sig-A", Shard{}, 43); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Errorf("seed mismatch: err = %v", err)
	}
}

// TestJournalRejectsForeignFramework: the harness binds the framework
// source — artifact checksums when serving saved frameworks, the
// trained-from-seed marker otherwise — into the journal signature, so a
// journal checkpointed under one framework can never splice its jobs
// into a resume that serves another.
func TestJournalRejectsForeignFramework(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0.json.journal")
	const base = "datasets=bk figures=9 scale=quick days=1 fw="
	j := openTestJournal(t, path, base+"trained-from-seed")
	if err := j.Record("BK", 9, 100, 25, []core.Metrics{{Algorithm: "IA", Assigned: 5}}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	foreign := base + "9c0ffee90c0ffee90c0ffee90c0ffee90c0ffee90c0ffee90c0ffee90c0ffee9"
	if _, err := OpenJournal(path, foreign, Shard{}, 42); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Errorf("resume under a foreign framework artifact: err = %v, want a different-run rejection", err)
	}

	back := openTestJournal(t, path, base+"trained-from-seed")
	defer back.Close()
	if back.Resumed() != 1 {
		t.Errorf("resume under the same framework source replayed %d jobs, want 1", back.Resumed())
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial final line;
// replay must keep every intact record, drop the torn tail, truncate
// the file, and leave the journal appendable.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0.json.journal")
	j := openTestJournal(t, path, "sig-A")
	if err := j.Record("BK", 5, 1, 25, []core.Metrics{{Algorithm: "IA"}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("BK", 5, 2, 25, []core.Metrics{{Algorithm: "IA", Assigned: 3}}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn append: half of a record line, no trailing newline.
	torn := append(append([]byte{}, intact...), intact[len(intact)/2:len(intact)-7]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	back := openTestJournal(t, path, "sig-A")
	if !back.Truncated {
		t.Error("torn tail not reported")
	}
	if back.Resumed() != 2 {
		t.Errorf("resumed %d jobs, want the 2 intact ones", back.Resumed())
	}
	// The file itself must be clean again: append works and survives
	// another replay.
	if err := back.Record("BK", 5, 3, 25, []core.Metrics{{Algorithm: "IA", Assigned: 9}}); err != nil {
		t.Fatal(err)
	}
	back.Close()
	again := openTestJournal(t, path, "sig-A")
	defer again.Close()
	if again.Truncated || again.Resumed() != 3 {
		t.Errorf("after repair: truncated %v, resumed %d, want clean 3", again.Truncated, again.Resumed())
	}
}

// TestJournalCorruptHeader: a journal whose header line is torn (a
// worker that died before syncing it) holds nothing recoverable. The
// successor must reinitialize it empty — never wedge the retry loop —
// and leave a journal that records and replays normally. An empty file
// (death between create and header write) gets the same treatment.
func TestJournalCorruptHeader(t *testing.T) {
	for name, content := range map[string][]byte{
		"torn header": []byte("deadbeef not-a-journal\n"),
		"empty file":  {},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s0.json.journal")
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(path, "sig-A", Shard{}, 42)
			if err != nil {
				t.Fatalf("unrecoverable journal wedged the open: %v", err)
			}
			if j.Resumed() != 0 {
				t.Errorf("resumed %d jobs from garbage", j.Resumed())
			}
			if err := j.Record("BK", 5, 1, 25, []core.Metrics{{Algorithm: "IA"}}); err != nil {
				t.Fatal(err)
			}
			j.Close()
			back := openTestJournal(t, path, "sig-A")
			defer back.Close()
			if back.Resumed() != 1 || back.Truncated {
				t.Errorf("reinitialized journal replays %d jobs (truncated %v), want 1 clean", back.Resumed(), back.Truncated)
			}
		})
	}
}

func TestJournalRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0.json.journal")
	j := openTestJournal(t, path, "sig-A")
	if err := j.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("journal survived Remove: %v", err)
	}
}

// TestRunSweepCheckpointResume is the resume contract end to end at the
// sweep level: a run that completed some jobs before dying hands its
// journal to a successor, which evaluates only the remaining jobs and
// produces output bit-identical to an uncheckpointed run.
func TestRunSweepCheckpointResume(t *testing.T) {
	r := testRunner(t)
	r.P.Parallelism = 1
	xs := []float64{1, 2, 3}
	series := []string{"s"}
	eval := func(calls *atomic.Int32, dieAfter int32) func(day int, x float64) ([]core.Metrics, error) {
		return func(day int, x float64) ([]core.Metrics, error) {
			n := calls.Add(1)
			if dieAfter > 0 && n > dieAfter {
				return nil, errFakeCrash
			}
			// Metrics derived from the job coordinates, so a wrong splice
			// would be visible in the output.
			return []core.Metrics{{Algorithm: "s", Assigned: day, AI: x * 100}}, nil
		}
	}

	// Reference: no checkpoint.
	var refCalls atomic.Int32
	want, err := r.runSweep(5, "x", xs, series, eval(&refCalls, 0))
	if err != nil {
		t.Fatal(err)
	}

	// First attempt: journaled, dies after 4 of the 6 jobs.
	dir := t.TempDir()
	jpath := filepath.Join(dir, "s0.json.journal")
	j1 := openTestJournal(t, jpath, "sweep-test")
	r.P.Checkpoint = j1
	var firstCalls atomic.Int32
	if _, err := r.runSweep(5, "x", xs, series, eval(&firstCalls, 4)); err != errFakeCrash {
		t.Fatalf("poisoned first attempt: err = %v", err)
	}
	if j1.Jobs() != 4 {
		t.Fatalf("first attempt journaled %d jobs, want 4", j1.Jobs())
	}
	j1.Close()

	// Successor: resumes the journal, evaluates only the 2 leftovers.
	j2 := openTestJournal(t, jpath, "sweep-test")
	defer j2.Close()
	if j2.Resumed() != 4 {
		t.Fatalf("successor resumed %d jobs, want 4", j2.Resumed())
	}
	r.P.Checkpoint = j2
	var secondCalls atomic.Int32
	got, err := r.runSweep(5, "x", xs, series, eval(&secondCalls, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n := secondCalls.Load(); n != 2 {
		t.Errorf("successor evaluated %d jobs, want only the 2 unfinished ones", n)
	}
	if got.Resumed != 4 {
		t.Errorf("successor SweepRaw.Resumed = %d, want 4", got.Resumed)
	}
	want.Resumed = got.Resumed // runtime accounting, outside the equivalence
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed sweep diverges from the uncheckpointed run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestRunSweepCheckpointArityMismatch: a journal recorded under a
// different series set must poison the sweep, not splice short rows in.
func TestRunSweepCheckpointArityMismatch(t *testing.T) {
	r := testRunner(t)
	r.P.Parallelism = 1
	jpath := filepath.Join(t.TempDir(), "s0.json.journal")
	j := openTestJournal(t, jpath, "sweep-test")
	defer j.Close()
	if err := j.Record("BK", 5, 1, r.P.Days[0], []core.Metrics{{Algorithm: "a"}}); err != nil {
		t.Fatal(err)
	}
	r.P.Checkpoint = j
	_, err := r.runSweep(5, "x", []float64{1}, []string{"a", "b"},
		func(day int, x float64) ([]core.Metrics, error) {
			return []core.Metrics{{Algorithm: "a"}, {Algorithm: "b"}}, nil
		})
	if err == nil || !strings.Contains(err.Error(), "stale or foreign") {
		t.Errorf("arity mismatch: err = %v", err)
	}
}

var errFakeCrash = errFake("fake crash")

type errFake string

func (e errFake) Error() string { return string(e) }

// Jobs returns how many completed jobs the journal holds: the records
// replayed at open plus those appended since.
func (j *Journal) Jobs() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// FuzzOpenJournal writes arbitrary bytes as a journal file and opens it
// the way a restarted shard worker does. The open must never panic and
// may fail only on a header that names another run (or is no sweep
// journal at all); anything else is torn or corrupt and is truncated or
// reinitialized. A successful open must leave the file clean: a second
// open truncates nothing and resumes the same jobs. The seeds are real
// journal lines, whole, torn and reordered.
func FuzzOpenJournal(f *testing.F) {
	line := func(v any) []byte {
		b, _, err := atomicio.Seal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	head := line(journalHeader{Kind: journalKind, Version: 1, Signature: "sig-A", Shard: Shard{}.normalized(), Seed: 42})
	foreign := line(journalHeader{Kind: journalKind, Version: 1, Signature: "sig-B", Shard: Shard{}.normalized(), Seed: 42})
	r1 := line(journalRecord{Dataset: "BK", Fig: 5, X: 1.5, Day: 25, Metrics: []core.Metrics{{Algorithm: "IA", Assigned: 7, AI: 0.125}}})
	r2 := line(journalRecord{Dataset: "FS", Fig: 9, X: 2, Day: 26, Metrics: []core.Metrics{{Algorithm: "MTA"}}})
	f.Add([]byte{})
	f.Add(head)
	f.Add(cat(head, r1, r2))
	f.Add(cat(head, r1, r2[:len(r2)/2]))
	f.Add(cat(head, r1, r1, r2))
	f.Add(cat(head[:len(head)-1], r1))
	f.Add(cat(r1, head))
	f.Add(cat(foreign, r1))
	f.Add([]byte("deadbeef not-a-journal\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "s0.json.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, "sig-A", Shard{}, 42)
		if err != nil {
			if msg := err.Error(); !strings.Contains(msg, "not a v1 sweep journal") && !strings.Contains(msg, "belongs to a different run") {
				t.Fatalf("open failed on something other than a foreign header: %v", err)
			}
			return
		}
		resumed := j.Resumed()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenJournal(path, "sig-A", Shard{}, 42)
		if err != nil {
			t.Fatalf("reopening a journal that opened cleanly: %v", err)
		}
		defer again.Close()
		if again.Truncated || again.Resumed() != resumed {
			t.Fatalf("reopen: truncated %v, resumed %d; want a clean file resuming %d", again.Truncated, again.Resumed(), resumed)
		}
	})
}
