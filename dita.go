// Package dita is the public API of this repository: a from-scratch Go
// implementation of "Influence-aware Task Assignment in Spatial
// Crowdsourcing" (ICDE 2022) — the DITA framework.
//
// The library answers the ITA problem: given workers and spatial tasks at
// a time instance, assign tasks to workers so that (1) the number of
// assigned tasks is maximal and (2) worker-task influence is maximal
// among such assignments. Worker-task influence combines three learned
// factors: LDA-based worker-task affinity, Historical-Acceptance worker
// willingness, and RRR-set-based worker propagation through the social
// network.
//
// # Quick start
//
//	data, _ := dita.Generate(dita.BrightkiteLike())
//	fw, _ := dita.Train(dita.TrainingDataFrom(data, 25*24), dita.Config{})
//	inst, _ := data.Snapshot(dita.SnapshotParams{
//		Day: 25, NumTasks: 500, NumWorkers: 400, ValidHours: 5, RadiusKm: 25,
//	})
//	set, metrics := fw.Assign(inst, dita.IA, 1)
//
// # Streaming
//
// An Engine runs the paper's protocol over arrival streams: at each
// time instance the online workers and open tasks are assigned, a
// worker stays online until assigned, and a task stays open until it
// expires. Replay drives it on a fixed instant Grid:
//
//	eng, _ := dita.NewEngine(fw, dita.EngineConfig{Algorithm: dita.IA})
//	instants, _ := eng.Replay(dita.Grid{Start: 600, Step: 0.5, Horizon: 24}, workers, tasks)
//	rate := eng.Totals().CompletionRate()
//
// See examples/ for complete programs and internal/experiments for the
// benchmark harness that regenerates every figure of the paper.
package dita

import (
	"dita/internal/assign"
	"dita/internal/core"
	"dita/internal/dataset"
	"dita/internal/engine"
	"dita/internal/influence"
	"dita/internal/model"
)

// Domain types (see internal/model for full documentation).
type (
	// Task is a spatial task s = (l, p, ϕ, C).
	Task = model.Task
	// Worker is a worker w = (l, r).
	Worker = model.Worker
	// Instance is one assignment round's input.
	Instance = model.Instance
	// Assignment is a single worker-task pair.
	Assignment = model.Assignment
	// AssignmentSet is a complete assignment with realized influences.
	AssignmentSet = model.AssignmentSet
	// CheckIn is one historical task-performing record.
	CheckIn = model.CheckIn
	// History is a worker's time-ordered record list.
	History = model.History
	// WorkerID, TaskID, VenueID and CategoryID are the dense identifier
	// types shared across the library.
	WorkerID   = model.WorkerID
	TaskID     = model.TaskID
	VenueID    = model.VenueID
	CategoryID = model.CategoryID
)

// Framework types.
type (
	// Config gathers all training knobs (zero value = paper defaults).
	Config = core.Config
	// Framework is a trained DITA pipeline.
	Framework = core.Framework
	// TrainingData is the input of Train.
	TrainingData = core.TrainingData
	// Metrics are the per-assignment evaluation measurements.
	Metrics = core.Metrics
	// Session is the incremental online phase: it carries per-task and
	// per-worker influence state across assignment instants, so an
	// instant only pays for newly arrived entities and fills willingness
	// only where its feasible pairs read it. Open one with
	// Framework.PrepareSession and call PreparePairs with the instant's
	// feasible pairs; on those pairs the evaluators are bit-identical to
	// those of a fresh single-use session for the same seed.
	Session = core.Session
)

// Train fits the three influence models and returns a ready framework.
func Train(data TrainingData, cfg Config) (*Framework, error) {
	return core.Train(data, cfg)
}

// Assignment algorithms.
type Algorithm = assign.Algorithm

// The five algorithms of the paper's evaluation.
const (
	// MTA maximizes only the number of assigned tasks (baseline).
	MTA = assign.MTA
	// IA is the basic Influence-aware Assignment (min-cost max-flow).
	IA = assign.IA
	// EIA adds location entropy to IA's edge costs.
	EIA = assign.EIA
	// DIA discounts influence by travel cost.
	DIA = assign.DIA
	// MI maximizes only total influence (baseline).
	MI = assign.MI
	// MIX is the exact maximum-influence ablation: the assignment of
	// maximal total influence (maximal cardinality among those), solved by
	// min-cost flow per feasibility component. It is not part of the
	// paper's study — it exists to measure how far the greedy MI sits
	// from the optimum.
	MIX = assign.MIX
)

// Components selects which influence factors are active; used by the
// paper's ablation variants.
type Components = influence.Components

// Component masks.
const (
	// All enables affinity, willingness and propagation (the IA model).
	All = influence.All
	// WP is IA-WP: willingness + propagation.
	WP = influence.WP
	// AP is IA-AP: affinity + propagation.
	AP = influence.AP
	// AW is IA-AW: affinity + willingness.
	AW = influence.AW
)

// Dataset simulation.
type (
	// DatasetParams configures the synthetic geo-social generator.
	DatasetParams = dataset.Params
	// Dataset is a generated (or loaded) geo-social check-in dataset.
	Dataset = dataset.Data
	// SnapshotParams selects one time instance from a dataset.
	SnapshotParams = dataset.SnapshotParams
	// Venue is a check-in location that can spawn tasks.
	Venue = dataset.Venue
)

// BrightkiteLike returns the Brightkite-flavoured dataset preset.
func BrightkiteLike() DatasetParams { return dataset.BrightkiteLike() }

// FoursquareLike returns the FourSquare-flavoured dataset preset.
func FoursquareLike() DatasetParams { return dataset.FoursquareLike() }

// Generate builds a synthetic dataset from the parameters.
func Generate(p DatasetParams) (*Dataset, error) { return dataset.Generate(p) }

// LoadDataset reads a dataset previously written with (*Dataset).Save.
func LoadDataset(dir string) (*Dataset, error) { return dataset.Load(dir) }

// TrainingDataFrom extracts a TrainingData view of everything in the
// dataset strictly before the cutoff (hours since epoch) — the standard
// way to train on history and evaluate on later days.
func TrainingDataFrom(d *Dataset, cutoffHours float64) TrainingData {
	return core.TrainingDataFrom(d, cutoffHours)
}

// FeasiblePairs exposes the spatio-temporal feasibility computation: all
// (worker, task) pairs of the instance satisfying the reachable-radius
// and deadline constraints at the given speed (km/h; <=0 means 5).
func FeasiblePairs(inst *Instance, speedKmH float64) []assign.Pair {
	return assign.FeasiblePairs(inst, speedKmH)
}

// TileStats reports the shape of a tiled instant: the occupied tile
// count of its feasibility scan, and the component structure of the
// feasibility graph the solver decomposed over.
type TileStats = assign.TileStats

// TiledFeasiblePairs is FeasiblePairs on up to parallelism pool workers
// (<=0 means all cores): the world is cut into reachability-sized tiles
// scanned independently. The pair list is bit-identical to
// FeasiblePairs — which is this scan on one worker — at any
// parallelism; the extra return is the occupied tile count.
func TiledFeasiblePairs(inst *Instance, speedKmH float64, parallelism int) ([]assign.Pair, int) {
	return assign.TiledFeasiblePairs(inst, speedKmH, parallelism)
}

// Streaming assignment: the engine keeps workers online until assigned
// and tasks open until they expire, across assignment instants.
type (
	// Engine is the streaming engine's carry-over state: the live pools
	// and the influence session the instants are served through.
	Engine = engine.Engine
	// EngineConfig parameterizes an engine.
	EngineConfig = engine.Config
	// Grid is a fixed instant schedule for Engine.Replay.
	Grid = engine.Grid
	// WorkerArrival is a worker joining the platform at a given time.
	WorkerArrival = engine.WorkerArrival
	// TaskArrival is a task published at a given time.
	TaskArrival = engine.TaskArrival
)

// NewEngine binds an empty streaming engine to a trained framework.
func NewEngine(fw *Framework, cfg EngineConfig) (*Engine, error) {
	return engine.New(fw, cfg)
}
