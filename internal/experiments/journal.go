// Per-job checkpointing for sharded sweep workers: every completed
// (figure, x, day) job's raw metrics are appended — durably, one
// sealed line at a time — to a journal file next to the worker's
// artifact. A worker restarted after a crash replays the journal and
// re-runs only the jobs it never finished; the jobs it replays are
// bit-identical to a fresh evaluation because the sweep machinery is
// deterministic, so resume is invisible in the merged figures.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"dita/internal/atomicio"
	"dita/internal/core"
	"dita/internal/faultinject"
)

// Checkpoint lets a sweep skip jobs a previous run of the same worker
// already completed, and durably record each newly finished job. Lookup
// and Record may be called concurrently from the sweep's fan-out.
type Checkpoint interface {
	// Lookup returns the recorded metrics of a completed job, if any.
	Lookup(dataset string, fig int, x float64, day int) ([]core.Metrics, bool)
	// Record durably persists one completed job before the sweep moves
	// on; an error poisons the sweep (better to crash loudly than to
	// lose completed work silently).
	Record(dataset string, fig int, x float64, day int, metrics []core.Metrics) error
}

// journalHeader is the journal's first line: the run signature that
// binds the file to one exact worker invocation. A journal written
// under different flags describes different jobs; replaying it would
// poison the artifact, so a mismatch is a hard error.
type journalHeader struct {
	Kind      string `json:"kind"`
	Version   int    `json:"version"`
	Signature string `json:"signature"`
	Shard     Shard  `json:"shard"`
	Seed      uint64 `json:"seed"`
}

const journalKind = "dita-sweep-journal"

// journalRecord is one completed job.
type journalRecord struct {
	Dataset string         `json:"dataset"`
	Fig     int            `json:"fig"`
	X       float64        `json:"x"`
	Day     int            `json:"day"`
	Metrics []core.Metrics `json:"metrics"`
}

// jobID keys a job across the journal's lifetime.
type jobID struct {
	dataset string
	fig     int
	x       float64
	day     int
}

// Journal is the durable Checkpoint a shard worker appends to. Each
// line is one JSON object sealed by atomicio.Seal — self-checking, and
// complete only with its trailing newline, so a torn final append (the
// expected shape of a crash) is detected and discarded on replay rather
// than parsed into garbage. A journal in the "<sha256hex> <json>" line
// framing of older builds fails the seal on its header and is
// reinitialized empty; its jobs re-run.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	done map[jobID][]core.Metrics
	// Truncated reports that replay found a torn or corrupt line and
	// dropped it (and anything after it); those jobs simply re-run.
	Truncated     bool
	resumedAtOpen int
}

// OpenJournal opens (or creates) the journal at path for a worker
// running under the given invocation signature. An existing journal is
// replayed: its header must match the signature, shard and seed
// exactly, its intact records become resumable jobs, and a torn tail is
// truncated away. A journal whose header itself is torn (a worker that
// died between creating the file and syncing the first line) holds
// nothing recoverable and is reinitialized empty — the one corruption
// that must not wedge a supervised retry loop. A header that parses but
// names a different run is a hard error: that journal describes someone
// else's jobs. The returned journal is positioned to append.
func OpenJournal(path, signature string, shard Shard, seed uint64) (*Journal, error) {
	j := &Journal{path: path, done: map[jobID][]core.Metrics{}}
	head := journalHeader{Kind: journalKind, Version: 1, Signature: signature, Shard: shard.normalized(), Seed: seed}
	headLine, _, err := atomicio.Seal(head)
	if err != nil {
		return nil, err
	}

	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	fresh := os.IsNotExist(err)

	keep, hasHeader := int64(0), false
	if !fresh {
		keep, hasHeader, err = j.replay(data, head)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		j.resumedAtOpen = len(j.done)
		if keep < int64(len(data)) {
			j.Truncated = true
			if err := os.Truncate(path, keep); err != nil {
				return nil, fmt.Errorf("%s: truncating torn journal tail: %w", path, err)
			}
		}
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiments: opening journal: %w", err)
	}
	j.f = f
	if fresh || !hasHeader {
		if _, err := f.Write(headLine); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: writing journal header: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: syncing journal header: %w", path, err)
		}
	}
	return j, nil
}

// replay validates the header and loads every intact record, returning
// the byte offset up to which the journal is good and whether a valid
// matching header was found. The first bad line — torn append, flipped
// bits, anything that fails its own seal — ends the replay;
// everything after it is recomputed rather than trusted. A torn header
// discards the whole file (keep 0, no header).
func (j *Journal) replay(data []byte, want journalHeader) (keep int64, hasHeader bool, err error) {
	lines := bytes.SplitAfter(data, []byte("\n"))
	offset := int64(0)
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		if _, err := atomicio.Verify(line); err != nil {
			return offset, hasHeader, nil // torn/corrupt from here on: drop the tail
		}
		if i == 0 {
			var head journalHeader
			if err := json.Unmarshal(line, &head); err != nil {
				return 0, false, nil // sealed but unparseable header: reinitialize
			}
			if head.Kind != journalKind || head.Version != 1 {
				return 0, false, fmt.Errorf("experiments: not a v1 sweep journal (kind %q, version %d)", head.Kind, head.Version)
			}
			if head != want {
				return 0, false, fmt.Errorf("experiments: journal belongs to a different run (journal signature %q, shard %s, seed %d; this run %q, shard %s, seed %d) — delete it or rerun with the original flags",
					head.Signature, head.Shard, head.Seed, want.Signature, want.Shard, want.Seed)
			}
			hasHeader = true
		} else {
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return offset, hasHeader, nil // sealed but unparseable: treat as torn
			}
			j.done[jobID{rec.Dataset, rec.Fig, rec.X, rec.Day}] = rec.Metrics
		}
		offset += int64(len(line))
	}
	return offset, hasHeader, nil
}

// Lookup implements Checkpoint over the replayed records.
func (j *Journal) Lookup(dataset string, fig int, x float64, day int) ([]core.Metrics, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ms, ok := j.done[jobID{dataset, fig, x, day}]
	return ms, ok
}

// Record implements Checkpoint: append one completed job and fsync, so
// the job survives any subsequent crash. The "journal.record" fault
// point fires after the record is durable — a worker killed there has
// journaled exactly the jobs it finished.
func (j *Journal) Record(dataset string, fig int, x float64, day int, metrics []core.Metrics) error {
	line, _, err := atomicio.Seal(journalRecord{Dataset: dataset, Fig: fig, X: x, Day: day, Metrics: metrics})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("%s: appending journal record: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("%s: syncing journal record: %w", j.path, err)
	}
	j.done[jobID{dataset, fig, x, day}] = metrics
	faultinject.Hit("journal.record")
	return nil
}

// Resumed returns how many completed jobs the journal carried when it
// was opened — the jobs a restarted worker does not re-run.
func (j *Journal) Resumed() int { return j.resumedAtOpen }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Sync flushes the journal to disk; signal handlers call it before the
// process exits so no durable-looking record is still in flight.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Sync()
}

// Close closes the journal file, leaving it on disk for a successor.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Remove closes and deletes the journal — the worker's final act after
// its sealed artifact has been renamed into place, at which point the
// journal is redundant and keeping it would only confuse a later run.
func (j *Journal) Remove() error {
	if err := j.Close(); err != nil {
		return err
	}
	return os.Remove(j.path)
}
