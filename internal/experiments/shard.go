// Cross-process sweep sharding: the (figure × sweep value × day) job
// grid behind the paper's evaluation partitions deterministically across
// worker processes, each of which writes a serializable ShardResult
// carrying the raw per-job core.Metrics it measured. MergeRaw recombines
// any complete shard set, and Reduce averages it with the same float
// reduction order as the sequential sweep loop, so the merged Results —
// and the tables and CSV derived from them — are bit-identical to a
// single-process run (the wall-clock CPU(ms) column aside, which is
// measured, not computed).
package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dita/internal/atomicio"
	"dita/internal/core"
)

// Shard names one worker's slice of a figure's job grid: of the jobs
// j = 0..len(xs)·len(days)-1 (x-major, day-minor — the sequential sweep
// order), the shard owns those with j % Count == Index. The rule is a
// pure function of the grid position, so any worker can compute its
// share without coordination, and the union over Index = 0..Count-1
// partitions the whole (figure × x × day) grid exactly once.
//
// The zero value means "unsharded" (one shard owning everything).
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// normalized maps the zero value to the explicit single-shard form.
func (s Shard) normalized() Shard {
	if s.Count == 0 && s.Index == 0 {
		return Shard{Index: 0, Count: 1}
	}
	return s
}

// Validate rejects specs that are not a well-formed k-of-N slice.
func (s Shard) Validate() error {
	n := s.normalized()
	if n.Count < 1 {
		return fmt.Errorf("experiments: shard count %d < 1", n.Count)
	}
	if n.Index < 0 || n.Index >= n.Count {
		return fmt.Errorf("experiments: shard index %d outside 0..%d", n.Index, n.Count-1)
	}
	return nil
}

// owns reports whether grid job j belongs to this (normalized) shard.
func (s Shard) owns(j int) bool { return j%s.Count == s.Index }

// String renders the spec in the CLI's k/N form.
func (s Shard) String() string {
	n := s.normalized()
	return fmt.Sprintf("%d/%d", n.Index, n.Count)
}

// ParseShard parses a k/N spec ("0/4" is the first of four shards).
func ParseShard(spec string) (Shard, error) {
	k, n, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("experiments: shard spec %q is not k/N", spec)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(k))
	if err != nil {
		return Shard{}, fmt.Errorf("experiments: shard index %q: %w", k, err)
	}
	count, err := strconv.Atoi(strings.TrimSpace(n))
	if err != nil {
		return Shard{}, fmt.Errorf("experiments: shard count %q: %w", n, err)
	}
	// An explicit spec must name a real slice; "0/0" is not forgiven
	// into the unsharded zero value the way the zero Shard is.
	if count < 1 {
		return Shard{}, fmt.Errorf("experiments: shard count %d < 1 in spec %q", count, spec)
	}
	s := Shard{Index: idx, Count: count}
	if err := s.Validate(); err != nil {
		return Shard{}, err
	}
	return s, nil
}

// JobMetrics is one evaluated (x, day) job of a figure's grid: one raw
// core.Metrics per series, in series order, exactly as the evaluation
// produced them — no averaging has happened yet.
type JobMetrics struct {
	X       float64        `json:"x"`
	Day     int            `json:"day"`
	Metrics []core.Metrics `json:"metrics"`
}

// SweepRaw is one figure's un-reduced sweep output under a shard: the
// full grid definition (Xs × Days, Series) plus the raw metrics of the
// jobs this shard owns. A complete grid (every job present) reduces to
// the figure's Result; partial grids refuse to reduce rather than
// fabricate or skew averages.
type SweepRaw struct {
	Fig     int          `json:"fig"`     // paper figure number, 5..16
	Figure  string       `json:"figure"`  // display label, e.g. "Fig. 9"
	Dataset string       `json:"dataset"` // "BK" or "FS"
	XLabel  string       `json:"xlabel"`
	Series  []string     `json:"series"` // algorithm / mask names, plot order
	Xs      []float64    `json:"xs"`     // sweep values, evaluation order
	Days    []int        `json:"days"`   // evaluation days, averaging order
	Shard   Shard        `json:"shard"`
	Jobs    []JobMetrics `json:"jobs"` // the owned jobs, sequential order
	// Resumed counts the jobs of this sweep that were spliced in from a
	// checkpoint journal instead of evaluated — runtime accounting for
	// the worker's progress report, deliberately outside the artifact
	// (the merged figures must not depend on how a worker got there).
	Resumed int `json:"-"`
}

// gridIndex maps a figure's sweep values and evaluation days to their
// grid coordinates: the one lookup from a job to its grid index j that
// both Reduce and MergeRaw validate jobs with.
type gridIndex struct {
	x   map[float64]int
	day map[int]int
}

func (sr *SweepRaw) index() gridIndex {
	ix := gridIndex{x: make(map[float64]int, len(sr.Xs)), day: make(map[int]int, len(sr.Days))}
	for i, x := range sr.Xs {
		ix.x[x] = i
	}
	for i, d := range sr.Days {
		ix.day[d] = i
	}
	return ix
}

// position returns the grid index j = xi·len(Days) + di of job after
// checking that its x and day are grid coordinates and that shard (valid
// and normalized) owns j. j is computed in uint64, so a grid declaring
// more cells than an int holds cannot wrap it.
func (ix gridIndex) position(sr *SweepRaw, job JobMetrics, shard Shard) (uint64, error) {
	xi, ok := ix.x[job.X]
	if !ok {
		return 0, fmt.Errorf("experiments: %s (%s): job x=%g is not a sweep value of the grid", sr.Figure, sr.Dataset, job.X)
	}
	di, ok := ix.day[job.Day]
	if !ok {
		return 0, fmt.Errorf("experiments: %s (%s): job day %d is not an evaluation day of the grid", sr.Figure, sr.Dataset, job.Day)
	}
	j := uint64(xi)*uint64(len(sr.Days)) + uint64(di)
	if owner := j % uint64(shard.Count); owner != uint64(shard.Index) {
		return 0, fmt.Errorf("experiments: %s (%s): job (x=%g, day %d) is owned by shard %d/%d, not %s — overlapping or misassigned shard set",
			sr.Figure, sr.Dataset, job.X, job.Day, owner, shard.Count, shard)
	}
	return j, nil
}

// grid arranges the raw jobs into the figure's full job grid, indexed
// j = xi·len(Days) + di, validating that every job sits in the grid, is
// owned by the declared shard, appears exactly once and has one metric
// per series, and that the jobs fill the grid. The grid is sized only
// after that, so an artifact declaring more cells than it carries jobs
// is refused without allocating them.
func (sr *SweepRaw) grid() ([][]core.Metrics, error) {
	shard := sr.Shard.normalized()
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	ix := sr.index()
	pos := make([]uint64, len(sr.Jobs))
	seen := make(map[uint64]bool, len(sr.Jobs))
	for k, job := range sr.Jobs {
		j, err := ix.position(sr, job, shard)
		if err != nil {
			return nil, err
		}
		if seen[j] {
			return nil, fmt.Errorf("experiments: %s (%s): job (x=%g, day %d) appears twice", sr.Figure, sr.Dataset, job.X, job.Day)
		}
		if len(job.Metrics) != len(sr.Series) {
			return nil, fmt.Errorf("experiments: %s (%s): job (x=%g, day %d) has %d metrics for %d series",
				sr.Figure, sr.Dataset, job.X, job.Day, len(job.Metrics), len(sr.Series))
		}
		seen[j] = true
		pos[k] = j
	}
	// Distinct jobs fill the grid exactly when it has no more cells than
	// jobs; comparing by division keeps the cell count from overflowing.
	// A short grid names its first missing job, which the pigeonhole
	// principle puts at an index no larger than len(Jobs).
	nd := len(sr.Days)
	if nd > 0 && len(sr.Xs) > len(sr.Jobs)/nd {
		j := 0
		for seen[uint64(j)] {
			j++
		}
		return nil, fmt.Errorf("experiments: %s (%s): job (x=%g, day %d) missing — shard %s holds %d jobs of the %d×%d grid; merge a complete shard set instead",
			sr.Figure, sr.Dataset, sr.Xs[j/nd], sr.Days[j%nd], shard, len(sr.Jobs), len(sr.Xs), nd)
	}
	g := make([][]core.Metrics, len(sr.Xs)*nd)
	for k, job := range sr.Jobs {
		g[pos[k]] = job.Metrics
	}
	return g, nil
}

// Reduce averages a complete figure grid into the Result the figure
// plots. The reduction walks cells in the sequential sweep order —
// x-major, series within x, days summed in Days order before one
// division — so the rows are bit-identical to an unsharded run. A grid
// with any job missing (an incomplete shard set, or a sharded run
// reduced on its own) is an error: averaging over fewer days than the
// protocol demands would silently skew every cell the missing day
// touches.
func (sr *SweepRaw) Reduce() (*Result, error) {
	nd := len(sr.Days)
	if nd == 0 {
		return nil, fmt.Errorf("experiments: %s (%s): no evaluation days — every series cell would have no contributing days", sr.Figure, sr.Dataset)
	}
	g, err := sr.grid()
	if err != nil {
		return nil, err
	}
	res := &Result{Figure: sr.Figure, Dataset: sr.Dataset, XLabel: sr.XLabel}
	for xi, x := range sr.Xs {
		for si, name := range sr.Series {
			a := &accum{}
			for di := 0; di < nd; di++ {
				a.add(g[xi*nd+di][si])
			}
			res.Rows = append(res.Rows, a.row(x, name))
		}
	}
	return res, nil
}

// ShardResult is the artifact one worker process writes: its shard spec,
// the seed the evaluation ran under, and the raw figure sweeps it
// executed. JSON round-trips every float bit-exactly (encoding/json
// emits the shortest representation that parses back to the same
// float64), so a merged run loses nothing to serialization.
//
// On disk it is sealed by atomicio.Seal, and every load verifies the
// seal over the bytes as read, so an artifact torn by a crashed or
// lying writer — truncated, bit-flipped, spliced — is rejected at the
// merge instead of silently averaged into the figures.
type ShardResult struct {
	Shard   Shard       `json:"shard"`
	Seed    uint64      `json:"seed"`
	Figures []*SweepRaw `json:"figures"`
}

// Encode seals the artifact and returns the bytes a worker writes to
// disk (via atomicio, so a reader never sees them half-flushed).
func (sr *ShardResult) Encode() ([]byte, error) {
	out, _, err := atomicio.Seal(sr)
	return out, err
}

// decodeShardResult parses an artifact, verifies its seal and validates
// its shard spec. Bytes that do not end in the seal are rejected too —
// a torn write, or the indented artifact of an older build — because a
// merge must not average bytes it cannot vouch for.
func decodeShardResult(data []byte) (*ShardResult, error) {
	var sr ShardResult
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, fmt.Errorf("experiments: reading shard artifact: %w", err)
	}
	if _, err := atomicio.Verify(data); err != nil {
		return nil, fmt.Errorf("experiments: shard artifact: %w", err)
	}
	if err := sr.Shard.Validate(); err != nil {
		return nil, err
	}
	return &sr, nil
}

// figureKey identifies one figure across shard artifacts.
type figureKey struct {
	dataset string
	fig     int
}

// MergeRaw validates a shard set — same Count and Seed everywhere,
// indices exactly 0..Count-1 with no duplicates, every shard carrying
// every figure with an identical grid definition — and combines each
// figure's jobs into one complete SweepRaw, ordered by (dataset, figure
// number). Per-job ownership is re-checked against the contributing
// shard, so an overlapping or tampered set is detected here rather than
// averaged; missing jobs surface when the combined figure reduces.
func MergeRaw(shards []*ShardResult) ([]*SweepRaw, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("experiments: merge of zero shard artifacts")
	}
	if err := shards[0].Shard.Validate(); err != nil {
		return nil, err
	}
	count := shards[0].Shard.normalized().Count
	// The count comes from the artifact, so bound it by the set before
	// sizing anything by it. A set larger than its count is diagnosed
	// below, shard by shard, as a duplicate or a disagreeing count.
	if count > len(shards) {
		return nil, fmt.Errorf("experiments: shard count %d but only %d artifacts — shards missing from the set", count, len(shards))
	}
	seed := shards[0].Seed
	seen := make([]bool, count)
	ordered := append([]*ShardResult(nil), shards...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].Shard.normalized().Index < ordered[j].Shard.normalized().Index
	})
	combined := map[figureKey]*SweepRaw{}
	coverage := map[figureKey][]bool{}
	var order []figureKey
	for _, sh := range ordered {
		s := sh.Shard.normalized()
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if s.Count != count {
			return nil, fmt.Errorf("experiments: shard %s disagrees on shard count (want %d)", s, count)
		}
		if sh.Seed != seed {
			return nil, fmt.Errorf("experiments: shard %s ran under seed %d, others under %d — artifacts are not one evaluation", s, sh.Seed, seed)
		}
		if seen[s.Index] {
			return nil, fmt.Errorf("experiments: shard %s appears twice", s)
		}
		seen[s.Index] = true
		for _, raw := range sh.Figures {
			key := figureKey{dataset: raw.Dataset, fig: raw.Fig}
			c, ok := combined[key]
			if !ok {
				c = &SweepRaw{
					Fig: raw.Fig, Figure: raw.Figure, Dataset: raw.Dataset, XLabel: raw.XLabel,
					Series: raw.Series, Xs: raw.Xs, Days: raw.Days,
					Shard: Shard{Index: 0, Count: 1},
				}
				combined[key] = c
				coverage[key] = make([]bool, count)
				order = append(order, key)
			} else if !sameGrid(c, raw) {
				return nil, fmt.Errorf("experiments: shard %s defines a different grid for %s (%s) than the other shards", s, raw.Figure, raw.Dataset)
			}
			if coverage[key][s.Index] {
				return nil, fmt.Errorf("experiments: shard %s carries %s (%s) twice", s, raw.Figure, raw.Dataset)
			}
			coverage[key][s.Index] = true
			ix := raw.index()
			for _, job := range raw.Jobs {
				if _, err := ix.position(raw, job, s); err != nil {
					return nil, fmt.Errorf("%w (shard %s)", err, s)
				}
			}
			c.Jobs = append(c.Jobs, raw.Jobs...)
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("experiments: shard %d/%d missing from the set", i, count)
		}
	}
	for key, byShard := range coverage {
		for i, ok := range byShard {
			if !ok {
				return nil, fmt.Errorf("experiments: shard %d/%d lacks %s (%s) — every shard must run every figure",
					i, count, combined[key].Figure, key.dataset)
			}
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].dataset != order[j].dataset {
			return order[i].dataset < order[j].dataset
		}
		return order[i].fig < order[j].fig
	})
	out := make([]*SweepRaw, len(order))
	for i, key := range order {
		out[i] = combined[key]
	}
	return out, nil
}

// sameGrid reports whether two shard views describe the same figure
// grid (everything but the shard spec and the jobs).
func sameGrid(a, b *SweepRaw) bool {
	if a.Fig != b.Fig || a.Figure != b.Figure || a.Dataset != b.Dataset || a.XLabel != b.XLabel {
		return false
	}
	if len(a.Series) != len(b.Series) || len(a.Xs) != len(b.Xs) || len(a.Days) != len(b.Days) {
		return false
	}
	for i := range a.Series {
		if a.Series[i] != b.Series[i] {
			return false
		}
	}
	for i := range a.Xs {
		if a.Xs[i] != b.Xs[i] {
			return false
		}
	}
	for i := range a.Days {
		if a.Days[i] != b.Days[i] {
			return false
		}
	}
	return true
}
