// Package influence combines the three modeled factors — worker-task
// affinity (LDA), worker willingness (Historical Acceptance) and worker
// propagation (RPO over RRR sets) — into the paper's worker-task
// influence (Section III-D):
//
//	if(ws, s) = Paff(ws, s) · Σ_{wi ∈ W\{ws}} Pwil(wi, s) · Ppro(ws, wi)
//
// where W is the whole worker set of the social network, not only the
// workers online at the instance.
//
// The package also implements the component masks behind the paper's
// ablation variants (Fig. 5–8): IA-WP drops affinity, IA-AP drops
// willingness and IA-AW drops propagation; a dropped factor is replaced
// by the neutral constant 1.
package influence

import (
	"fmt"
	"sync"

	"dita/internal/lda"
	"dita/internal/mobility"
	"dita/internal/model"
	"dita/internal/parallel"
	"dita/internal/rrr"
)

// Components selects which factors participate in the influence product.
type Components uint8

// Component bits. All enables the full model (the IA algorithm);
// the three two-factor masks are the paper's ablations.
const (
	Affinity Components = 1 << iota
	Willingness
	Propagation

	All = Affinity | Willingness | Propagation
	// WP is the IA-WP variant: willingness + propagation, no affinity.
	WP = Willingness | Propagation
	// AP is the IA-AP variant: affinity + propagation, no willingness.
	AP = Affinity | Propagation
	// AW is the IA-AW variant: affinity + willingness, no propagation.
	AW = Affinity | Willingness
)

// String names the mask the way the paper does.
func (c Components) String() string {
	switch c {
	case All:
		return "IA"
	case WP:
		return "IA-WP"
	case AP:
		return "IA-AP"
	case AW:
		return "IA-AW"
	default:
		s := ""
		if c&Affinity != 0 {
			s += "A"
		}
		if c&Willingness != 0 {
			s += "W"
		}
		if c&Propagation != 0 {
			s += "P"
		}
		if s == "" {
			return "none"
		}
		return s
	}
}

// ParseComponents resolves a mask name: the paper's variant names IA,
// IA-WP, IA-AP and IA-AW (as String prints them), or the aliases all,
// ALL, WP, AP and AW.
func ParseComponents(s string) (Components, error) {
	switch s {
	case "IA", "all", "ALL":
		return All, nil
	case "IA-WP", "WP":
		return WP, nil
	case "IA-AP", "AP":
		return AP, nil
	case "IA-AW", "AW":
		return AW, nil
	}
	return 0, fmt.Errorf("influence: unknown mask %q (want IA, IA-WP, IA-AP or IA-AW)", s)
}

// Engine owns the trained models and produces per-instance evaluators.
type Engine struct {
	// Prop is the RRR collection over the full social graph.
	Prop *rrr.Collection
	// Wil is the fitted Historical Acceptance model.
	Wil *mobility.Model
	// LDA is the trained topic model; ThetaUser[u] is user u's
	// document-topic distribution (nil or uniform when the user has no
	// history).
	LDA       *lda.Model
	ThetaUser [][]float64
	// TopLocations caps how many of a worker's highest-stationary-mass
	// locations each willingness entry (Equation 2) sums over; 0 means
	// all. The truncation bounds the cost of one entry and preserves ≥95%
	// of the mass on heavy-tailed visit distributions. The truncated
	// models are built once per engine, at its first willingness-bearing
	// session, so TopLocations must not change after that.
	TopLocations int

	// models are the truncated per-user willingness models, derived once
	// (modelsOnce) and shared read-only by every session.
	modelsOnce sync.Once
	models     []*mobility.WorkerModel
}

// rootCount is a compacted view of the RRR cover of one instance worker:
// how many sets rooted at Root contain the worker.
type rootCount struct {
	root  int32
	count int32
}

// Evaluator answers influence queries for one time instance. Build it
// once per instance (via Session.Evaluate) over the instance's feasible
// pairs and share it across every assignment algorithm so all of them
// price the same pairs identically.
//
// An Evaluator is a view: it holds per-position pointers into the
// session's cached state and reads that state in place, so a
// carried-over task or worker costs no copy. It stays valid on its
// prepared pairs after later Evaluate calls: a filled willingness entry,
// a theta and a root list never change once computed, and eviction only
// drops the session's map entries, never the states themselves.
type Evaluator struct {
	comps Components
	// scale converts an RRR multiplicity into Ppro.
	scale float64
	// users[w] is the cached state of instance worker w's user.
	users []*userState
	// tasks[t] is the cached state of instance task t; nil under masks
	// without affinity and willingness, which keep no task state.
	tasks []*taskState
}

// willingnessModels returns the per-user willingness models limited to
// the TopLocations highest-stationary-probability locations. The first
// call builds them on the shared pool with par workers (each user writes
// only its own slot, so the models are identical at any par); later
// calls return the same slice.
func (e *Engine) willingnessModels(par int) []*mobility.WorkerModel {
	e.modelsOnce.Do(func() { e.models = e.truncatedModels(par) })
	return e.models
}

func (e *Engine) truncatedModels(par int) []*mobility.WorkerModel {
	nU := e.Prop.Graph().N()
	out := make([]*mobility.WorkerModel, nU)
	parallel.For(par, nU, func(_, u int) {
		wm := e.Wil.Worker(model.WorkerID(u))
		if wm == nil {
			return
		}
		if e.TopLocations <= 0 || len(wm.Locs) <= e.TopLocations {
			out[u] = wm
			return
		}
		out[u] = truncateModel(wm, e.TopLocations)
	})
	return out
}

func truncateModel(wm *mobility.WorkerModel, top int) *mobility.WorkerModel {
	type ip struct {
		i int
		p float64
	}
	items := make([]ip, len(wm.Stationary))
	for i, p := range wm.Stationary {
		items[i] = ip{i, p}
	}
	// Partial selection of the top locations (selection sort over `top`
	// slots; top is a small constant).
	for a := 0; a < top; a++ {
		best := a
		for b := a + 1; b < len(items); b++ {
			if items[b].p > items[best].p {
				best = b
			}
		}
		items[a], items[best] = items[best], items[a]
	}
	t := &mobility.WorkerModel{Shape: wm.Shape}
	mass := 0.0
	for _, it := range items[:top] {
		mass += it.p
	}
	for _, it := range items[:top] {
		t.Locs = append(t.Locs, wm.Locs[it.i])
		// Renormalize so the stationary distribution stays a
		// distribution after truncation.
		t.Stationary = append(t.Stationary, it.p/mass)
	}
	return t
}

func compactRoots(c *rrr.Collection, user int32) []rootCount {
	// RootCounts returns (root, multiplicity) pairs already sorted by
	// root id, so float summation order — and therefore every influence
	// value — is deterministic run to run.
	roots, ns := c.RootCounts(user)
	out := make([]rootCount, len(roots))
	for i := range roots {
		out[i] = rootCount{root: roots[i], count: ns[i]}
	}
	return out
}

func propagationSum(roots []rootCount, self int32, scale float64) float64 {
	sum := 0.0
	for _, rc := range roots {
		if rc.root == self {
			continue
		}
		v := scale * float64(rc.count)
		if v > 1 {
			v = 1
		}
		sum += v
	}
	return sum
}

func uniformTopics(k int) []float64 {
	u := make([]float64, k)
	for i := range u {
		u[i] = 1 / float64(k)
	}
	return u
}

// Influence returns if(w, s) for instance worker index w and task index
// t under the evaluator's component mask. (w, t) must be one of the pairs
// the evaluator was prepared for: willingness is filled only where those
// pairs read it, so any other pair may return a wrong value.
func (ev *Evaluator) Influence(w, t int) float64 {
	us, ts := ev.users[w], ev.tasks[t]
	aff := 1.0
	if ev.comps&Affinity != 0 {
		aff = lda.Affinity(us.theta, ts.theta)
	}
	var spread float64
	switch {
	case ev.comps&Propagation != 0 && ev.comps&Willingness != 0:
		// Σ_{wi≠ws} Pwil(wi,s) · Ppro(ws,wi), via the RRR cover of ws.
		for _, rc := range us.roots {
			if rc.root == us.u {
				continue
			}
			p := ev.scale * float64(rc.count)
			if p > 1 {
				p = 1
			}
			spread += float64(ts.row[rc.root]) * p
		}
	case ev.comps&Propagation != 0:
		// Willingness neutral (IA-AP): Σ Ppro(ws, wi).
		spread = us.propSum
	case ev.comps&Willingness != 0:
		// Propagation neutral (IA-AW): Σ_{wi≠ws} Pwil(wi, s).
		spread = ts.colSum - float64(ts.row[us.u])
	default:
		// Neither spread factor: the influence degenerates to affinity.
		spread = 1
	}
	return aff * spread
}

// PropagationSum returns Σ_{wi≠ws} Ppro(ws, wi) for instance worker w —
// the per-worker term of the Average Propagation metric (Equation 7).
func (ev *Evaluator) PropagationSum(w int) float64 { return ev.users[w].propSum }
