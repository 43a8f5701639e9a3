// Package model declares the domain types shared by every component of
// the DITA framework: spatial tasks, workers, check-in records, historical
// task-performing records, and task assignments.
//
// Conventions:
//   - time is measured in fractional hours since the dataset epoch;
//   - distances are kilometres (see internal/geo);
//   - identifiers are dense small integers so components can use slices
//     instead of maps on hot paths.
package model

import (
	"fmt"
	"sort"

	"dita/internal/geo"
)

// WorkerID identifies a worker (a user of the underlying geo-social
// network). IDs are dense: 0 <= id < NumWorkers.
type WorkerID int32

// TaskID identifies a spatial task: dense within one snapshot instance,
// or stable across a task's whole lifetime in the streaming simulator
// (the influence session layer keys its per-task cache on it).
type TaskID int32

// VenueID identifies a venue (a check-in location that can spawn tasks).
type VenueID int32

// CategoryID identifies a task/venue category (the LDA vocabulary).
type CategoryID int32

// Task is a spatial task s = (l, p, ϕ, C) per Definition 1 of the paper:
// a location, a publication time, a valid (expiry) duration and a set of
// category labels. Venue records which venue spawned the task so location
// entropy can be looked up.
type Task struct {
	ID         TaskID
	Loc        geo.Point
	Publish    float64 // publication time s.p, hours since epoch
	Valid      float64 // valid duration s.ϕ in hours; expires at Publish+Valid
	Categories []CategoryID
	Venue      VenueID
}

// Expiry returns the instant the task expires (s.p + s.ϕ).
func (t Task) Expiry() float64 { return t.Publish + t.Valid }

// Worker is a worker w = (l, r) per Definition 2: a current location and a
// reachable radius in kilometres. User is the identity of the worker in
// the social network and historical records (stable across time
// instances), while ID identifies the worker on the serving platform: a
// dense snapshot index in single-instance pipelines, or a stable
// platform-level arrival id in the streaming simulator (where a worker
// keeps its ID across every instant it stays online).
type Worker struct {
	ID     WorkerID
	User   WorkerID // stable user identity in the social graph
	Loc    geo.Point
	Radius float64 // reachable distance w.r in km
}

// CheckIn is one historical task-performing record: worker User performed
// a task at Venue/Loc, arriving at Arrive and completing at Complete (both
// hours since epoch). Categories are the venue's category labels.
type CheckIn struct {
	User       WorkerID
	Venue      VenueID
	Loc        geo.Point
	Arrive     float64
	Complete   float64
	Categories []CategoryID
}

// History is a worker's historical task-performing record list S_w,
// ordered by check-in (arrival) time as the HA algorithm requires.
type History []CheckIn

// SortByTime sorts h in ascending arrival-time order (stable, so records
// with identical timestamps keep their original relative order).
func (h History) SortByTime() {
	sort.SliceStable(h, func(i, j int) bool { return h[i].Arrive < h[j].Arrive })
}

// Assignment is one worker-task pair (s, w) of a spatial task assignment.
// Task and Worker reference the instance positionally — they index the
// Instance.Tasks and Instance.Workers slices of the instance the
// assignment was computed for — so they remain meaningful when the
// instance carries platform-stable (non-dense) entity IDs.
type Assignment struct {
	Task   TaskID
	Worker WorkerID
}

// AssignmentSet is a complete assignment A for one time instance together
// with the influence values realized by each pair, which the evaluation
// metrics (AI, AP, travel cost) consume.
type AssignmentSet struct {
	Pairs []Assignment
	// Influence[i] is if(w,s) for Pairs[i].
	Influence []float64
	// TravelKm[i] is the Euclidean distance worker i travels to its task.
	TravelKm []float64
}

// Len returns |A|, the number of assigned tasks.
func (a *AssignmentSet) Len() int { return len(a.Pairs) }

// TotalInfluence returns the summed worker-task influence of the
// assignment.
func (a *AssignmentSet) TotalInfluence() float64 {
	sum := 0.0
	for _, v := range a.Influence {
		sum += v
	}
	return sum
}

// AverageInfluence returns AI = Σ if(w,s) / |A| (Equation 6); it is zero
// for an empty assignment.
func (a *AssignmentSet) AverageInfluence() float64 {
	if len(a.Pairs) == 0 {
		return 0
	}
	return a.TotalInfluence() / float64(len(a.Pairs))
}

// AverageTravel returns the mean travel distance in kilometres; zero for
// an empty assignment.
func (a *AssignmentSet) AverageTravel() float64 {
	if len(a.Pairs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range a.TravelKm {
		sum += v
	}
	return sum / float64(len(a.Pairs))
}

// Validate checks the structural invariants of a task assignment per
// Definition 4: every worker and every task appears at most once, and all
// referenced ids are within range. It returns a descriptive error on the
// first violation found.
func (a *AssignmentSet) Validate(numTasks, numWorkers int) error {
	if len(a.Influence) != len(a.Pairs) || len(a.TravelKm) != len(a.Pairs) {
		return fmt.Errorf("model: ragged assignment set: %d pairs, %d influences, %d travels",
			len(a.Pairs), len(a.Influence), len(a.TravelKm))
	}
	seenTask := make(map[TaskID]bool, len(a.Pairs))
	seenWorker := make(map[WorkerID]bool, len(a.Pairs))
	for _, p := range a.Pairs {
		if p.Task < 0 || int(p.Task) >= numTasks {
			return fmt.Errorf("model: task id %d out of range [0,%d)", p.Task, numTasks)
		}
		if p.Worker < 0 || int(p.Worker) >= numWorkers {
			return fmt.Errorf("model: worker id %d out of range [0,%d)", p.Worker, numWorkers)
		}
		if seenTask[p.Task] {
			return fmt.Errorf("model: task %d assigned twice", p.Task)
		}
		if seenWorker[p.Worker] {
			return fmt.Errorf("model: worker %d assigned twice", p.Worker)
		}
		seenTask[p.Task] = true
		seenWorker[p.Worker] = true
	}
	return nil
}

// Instance is the input of one assignment round: the workers and tasks
// available at time Now. It is the unit the DITA pipeline operates on.
type Instance struct {
	Now     float64 // current time in hours since epoch
	Workers []Worker
	Tasks   []Task
}
