// Package core assembles the DITA framework (Figure 2): it trains the
// three influence-modeling components — LDA worker-task affinity,
// Historical Acceptance willingness, and RPO worker propagation — from a
// dataset's historical records and social network, then answers
// per-instance task-assignment requests with any of the five algorithms
// while recording the evaluation metrics of Section V (number of
// assigned tasks, Average Influence, Average Propagation, travel cost,
// CPU time).
package core

import (
	"errors"
	"fmt"
	"time"

	"dita/internal/assign"
	"dita/internal/dataset"
	"dita/internal/entropy"
	"dita/internal/influence"
	"dita/internal/lda"
	"dita/internal/mobility"
	"dita/internal/model"
	"dita/internal/rrr"
	"dita/internal/socialgraph"
)

// Config gathers the training knobs of the whole framework. Zero values
// mean "the paper's defaults": |Top| = 50 topics, ε = 0.1, o = 1, worker
// speed 5 km/h.
type Config struct {
	LDA      lda.Config      `json:"lda"`
	Mobility mobility.Config `json:"mobility"`
	RPO      rrr.Params      `json:"rpo"`
	// SpeedKmH is the shared worker travel speed; default 5.
	SpeedKmH float64 `json:"speed_kmh"`
	// TopWillingnessLocations bounds the per-worker location set each
	// willingness entry sums over; 0 keeps all locations. See
	// influence.Engine.TopLocations.
	TopWillingnessLocations int `json:"top_willingness_locations"`
	// Parallelism is the umbrella worker-pool bound for the whole
	// training phase: when set (> 0) it is copied into every sub-config
	// whose own Parallelism is unset. Each trainer follows the shared
	// contract (see internal/parallel): the fitted framework is
	// bit-identical at any setting.
	Parallelism int `json:"parallelism,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.SpeedKmH <= 0 {
		c.SpeedKmH = 5
	}
	if c.Parallelism > 0 {
		if c.LDA.Parallelism == 0 {
			c.LDA.Parallelism = c.Parallelism
		}
		if c.Mobility.Parallelism == 0 {
			c.Mobility.Parallelism = c.Parallelism
		}
		if c.RPO.Parallelism == 0 {
			c.RPO.Parallelism = c.Parallelism
		}
	}
	return c
}

// TrainingData is the input of Train: the social network, the historical
// task-performing records (per user, time-ordered), and the category
// vocabulary size.
type TrainingData struct {
	Graph     *socialgraph.Graph
	Histories map[model.WorkerID]model.History
	// Documents[u] is user u's LDA document (category labels of performed
	// tasks); indexed by user id, may be shorter than Graph.N().
	Documents [][]int32
	Vocab     int
	// Records is the flat check-in list used for location entropy;
	// typically the concatenation of Histories.
	Records []model.CheckIn
}

// TrainingDataFrom extracts the training input from everything in the
// dataset strictly before the cutoff (hours since epoch) — the standard
// way to train on history and evaluate on later days.
func TrainingDataFrom(d *dataset.Data, cutoffHours float64) TrainingData {
	docs, vocab := d.Documents(cutoffHours)
	return TrainingData{
		Graph:     d.Graph,
		Histories: d.HistoriesBefore(cutoffHours),
		Documents: docs,
		Vocab:     vocab,
		Records:   d.CheckInsBefore(cutoffHours),
	}
}

// Framework is a trained DITA instance. It is safe for concurrent reads
// (all state is immutable after Train).
type Framework struct {
	cfg     Config
	graph   *socialgraph.Graph
	lda     *lda.Model
	theta   [][]float64
	mob     *mobility.Model
	entropy *entropy.Table
	prop    *rrr.Collection
	engine  *influence.Engine
}

// ErrDocumentsExceedGraph reports training data whose Documents slice
// has more entries than the social graph has users: documents are
// indexed by user id, so the surplus entries belong to nobody. Train
// used to drop them silently, fitting the LDA on documents whose topic
// mixtures could never be read back through theta.
var ErrDocumentsExceedGraph = errors.New("core: more documents than graph users")

// Train fits every model of the influence-modeling component and returns
// a ready framework.
func Train(data TrainingData, cfg Config) (*Framework, error) {
	cfg = cfg.withDefaults()
	if data.Graph == nil {
		return nil, fmt.Errorf("core: training data has no social graph")
	}
	if data.Vocab <= 0 {
		return nil, fmt.Errorf("core: vocabulary size %d must be positive", data.Vocab)
	}
	if len(data.Documents) > data.Graph.N() {
		return nil, fmt.Errorf("%w: %d documents for a %d-user graph", ErrDocumentsExceedGraph, len(data.Documents), data.Graph.N())
	}
	ldaModel, err := lda.Train(data.Documents, data.Vocab, cfg.LDA)
	if err != nil {
		return nil, fmt.Errorf("core: training LDA: %w", err)
	}
	theta := make([][]float64, data.Graph.N())
	for u := range data.Documents {
		if len(data.Documents[u]) > 0 {
			theta[u] = ldaModel.DocTopics(u)
		}
	}
	return Restore(cfg, data.Graph, ldaModel, theta,
		mobility.Fit(data.Histories, cfg.Mobility),
		entropy.Compute(data.Records),
		rrr.Build(data.Graph, cfg.RPO))
}

// Restore assembles a framework from already-fitted components. Train
// returns through it, and it is the loading half of the framework
// artifact round trip (see internal/fwio): given the components Train
// produced, the restored framework's every downstream output is
// bit-identical to the trained one's. theta must have one row per graph user (nil for users
// without documents), and each non-nil row must be a topic mixture of
// the model's topic count.
func Restore(cfg Config, graph *socialgraph.Graph, ldaModel *lda.Model, theta [][]float64, mob *mobility.Model, ent *entropy.Table, prop *rrr.Collection) (*Framework, error) {
	cfg = cfg.withDefaults()
	if graph == nil {
		return nil, fmt.Errorf("core: restore without a social graph")
	}
	if ldaModel == nil || mob == nil || ent == nil || prop == nil {
		return nil, fmt.Errorf("core: restore with missing components (lda=%t mobility=%t entropy=%t propagation=%t)",
			ldaModel != nil, mob != nil, ent != nil, prop != nil)
	}
	if len(theta) != graph.N() {
		return nil, fmt.Errorf("core: restore theta has %d rows for a %d-user graph", len(theta), graph.N())
	}
	for u, row := range theta {
		if row != nil && len(row) != ldaModel.Topics() {
			return nil, fmt.Errorf("core: restore theta row %d has %d topics, model has %d", u, len(row), ldaModel.Topics())
		}
	}
	f := &Framework{
		cfg:     cfg,
		graph:   graph,
		lda:     ldaModel,
		theta:   theta,
		mob:     mob,
		entropy: ent,
		prop:    prop,
	}
	f.engine = &influence.Engine{
		Prop:         f.prop,
		Wil:          f.mob,
		LDA:          f.lda,
		ThetaUser:    f.theta,
		TopLocations: cfg.TopWillingnessLocations,
	}
	// The stored config drops the worker-pool knobs (consumed by the
	// sub-trainers): like every trained component, a Framework's identity
	// is independent of the Parallelism it was fitted with.
	f.cfg.Parallelism = 0
	f.cfg.LDA.Parallelism = 0
	f.cfg.Mobility.Parallelism = 0
	f.cfg.RPO.Parallelism = 0
	return f, nil
}

// Config returns the training configuration (with defaults applied and
// parallelism knobs zeroed, as stored by Train).
func (f *Framework) Config() Config { return f.cfg }

// Theta returns the per-user topic mixtures, indexed by user id with nil
// rows for users without documents. Rows alias model storage and must be
// treated as read-only.
func (f *Framework) Theta() [][]float64 { return f.theta }

// Graph returns the social network the framework was trained on.
func (f *Framework) Graph() *socialgraph.Graph { return f.graph }

// LDA returns the trained topic model.
func (f *Framework) LDA() *lda.Model { return f.lda }

// Mobility returns the fitted Historical Acceptance model.
func (f *Framework) Mobility() *mobility.Model { return f.mob }

// Entropy returns the location-entropy table.
func (f *Framework) Entropy() *entropy.Table { return f.entropy }

// Propagation returns the RRR collection behind worker propagation.
func (f *Framework) Propagation() *rrr.Collection { return f.prop }

// Speed returns the configured worker travel speed in km/h.
func (f *Framework) Speed() float64 { return f.cfg.SpeedKmH }

// Metrics are the per-run evaluation measurements of Section V-B.
//
// The JSON form is the wire format sharded experiment runs exchange
// (experiments.ShardResult), and it round-trips bit-exactly: floats are
// always finite here, and encoding/json emits the shortest decimal that
// parses back to the same float64; CPU serializes as integer
// nanoseconds.
type Metrics struct {
	Algorithm  string        `json:"algorithm"`
	Assigned   int           `json:"assigned"`  // |A|
	AI         float64       `json:"ai"`        // Average Influence (Equation 6)
	AP         float64       `json:"ap"`        // Average Propagation (Equation 7)
	TravelKm   float64       `json:"travel_km"` // mean travel distance of assigned workers
	CPU        time.Duration `json:"cpu_ns"`    // assignment computation time only
	Feasible   int           `json:"feasible"`  // number of feasible worker-task pairs (edges m)
	NumWorkers int           `json:"num_workers"`
	NumTasks   int           `json:"num_tasks"`
}

// Session carries the online phase's influence-modeling state across
// assignment instants: per-task folded topic vectors and willingness
// rows (filled on demand where feasible pairs read them), and per-worker
// propagation state, keyed by stable identity (see influence.Session).
// An instant pays only for newly arrived tasks and workers and for
// willingness entries no earlier instant filled; state for entities that
// left the pool is evicted. On every prepared pair the evaluators are
// bit-identical to a fresh session's for the same seed. A single-use
// session (PrepareSession(...).Prepare) is the cold form. Preparing is
// the "worker-task influence modeling" phase of DITA, excluded from the
// assignment CPU-time metric as in the paper's phase split.
type Session struct {
	is    *influence.Session
	speed float64
}

// PrepareSession opens an incremental online-phase session under the
// given component mask and base seed. parallelism bounds the worker pool
// fresh per-entity state is computed on (<= 0 means all cores); results
// are bit-identical at any setting.
func (f *Framework) PrepareSession(comps influence.Components, seed uint64, parallelism int) *Session {
	return &Session{is: f.engine.NewSession(comps, seed, parallelism), speed: f.cfg.SpeedKmH}
}

// Prepare returns the evaluator for one instant, reusing cached state
// for carried-over tasks and workers: it scans the instance's feasible
// pairs (assign.FeasiblePairs) and prepares over them (PreparePairs).
// Callers that scan the pairs themselves should call PreparePairs.
func (s *Session) Prepare(inst *model.Instance) *influence.Evaluator {
	return s.PreparePairs(inst, assign.FeasiblePairs(inst, s.speed))
}

// PreparePairs returns the evaluator for one instant over the given
// feasible pairs of inst, reusing cached state for carried-over tasks
// and workers. The evaluator is valid only on those pairs (see
// influence.Session.Evaluate).
func (s *Session) PreparePairs(inst *model.Instance, pairs []assign.Pair) *influence.Evaluator {
	return s.is.Evaluate(inst, pairs)
}

// WilEntries returns how many willingness entries the last Prepare or
// PreparePairs computed (see influence.Session.WilEntries).
func (s *Session) WilEntries() int { return s.is.WilEntries() }

// Influence exposes the underlying influence session (cache
// introspection for tests and benchmarks).
func (s *Session) Influence() *influence.Session { return s.is }

// AssignPreparedPairsTiled runs one algorithm against a prepared
// evaluator over the instance's feasible pairs and returns the
// assignment with its metrics and the solve's component statistics.
// pairs is authoritative — as FeasiblePairs or TiledFeasiblePairs
// computed it, used as-is even when nil or empty — so several algorithms
// can share one feasibility scan. The solve runs component-decomposed on
// up to parallelism pool workers (<= 0 means all cores); the assignment
// set and metrics are bit-identical at any setting.
func (f *Framework) AssignPreparedPairsTiled(inst *model.Instance, ev *influence.Evaluator, alg assign.Algorithm, pairs []assign.Pair, parallelism int) (*model.AssignmentSet, Metrics, assign.TileStats) {
	start := time.Now() //dita:wallclock
	prob := &assign.Problem{
		Inst:      inst,
		Influence: ev.Influence,
		Entropy: func(t int) float64 {
			return f.entropy.Lookup(inst.Tasks[t].Venue)
		},
		Pairs: pairs,
	}
	set, stats := assign.SolveTiled(alg, prob, parallelism)
	cpu := time.Since(start) //dita:wallclock

	m := Metrics{
		Algorithm:  alg.String(),
		Assigned:   set.Len(),
		AI:         set.AverageInfluence(),
		TravelKm:   set.AverageTravel(),
		CPU:        cpu,
		Feasible:   len(pairs),
		NumWorkers: len(inst.Workers),
		NumTasks:   len(inst.Tasks),
	}
	if set.Len() > 0 {
		apSum := 0.0
		for _, pr := range set.Pairs {
			apSum += ev.PropagationSum(int(pr.Worker))
		}
		m.AP = apSum / float64(set.Len())
	}
	return set, m, stats
}

// Assign is the one-call path: scan the feasible pairs (charged to CPU
// time, as edge construction is part of assignment in the paper's
// measurement), prepare the evaluator over them through a single-use
// Session with the full influence model and run the algorithm on one
// pool worker.
func (f *Framework) Assign(inst *model.Instance, alg assign.Algorithm, seed uint64) (*model.AssignmentSet, Metrics) {
	start := time.Now() //dita:wallclock
	pairs := assign.FeasiblePairs(inst, f.cfg.SpeedKmH)
	scan := time.Since(start) //dita:wallclock
	ev := f.PrepareSession(influence.All, seed, 0).PreparePairs(inst, pairs)
	set, m, _ := f.AssignPreparedPairsTiled(inst, ev, alg, pairs, 1)
	m.CPU += scan
	return set, m
}
