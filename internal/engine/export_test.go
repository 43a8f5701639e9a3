package engine

import "fmt"

// FireCold fires the instant at now through a fresh influence session, so
// nothing carries over from earlier instants: the cold reference of the
// online phase. The fresh session then serves later instants, so firing
// every instant of a run through FireCold rebuilds the influence state
// from the trained models every time.
func FireCold(e *Engine, now float64) InstantResult {
	e.sess = e.fw.PrepareSession(e.cfg.Components, e.cfg.Seed, e.cfg.Parallelism)
	return e.Fire(now)
}

// CheckPools checks the pool invariants departures rely on: each pool
// is sorted by strictly increasing id, its marks have the pool's length,
// and the tombstone counters match the marks set.
func CheckPools(e *Engine) error {
	if len(e.usedW) != len(e.workers) || len(e.usedT) != len(e.tasks) {
		return fmt.Errorf("marks %d/%d for pools %d/%d", len(e.usedW), len(e.usedT), len(e.workers), len(e.tasks))
	}
	for i := 1; i < len(e.workers); i++ {
		if e.workers[i-1].ID >= e.workers[i].ID {
			return fmt.Errorf("worker pool ids %d, %d at %d not strictly increasing", e.workers[i-1].ID, e.workers[i].ID, i)
		}
	}
	for i := 1; i < len(e.tasks); i++ {
		if e.tasks[i-1].ID >= e.tasks[i].ID {
			return fmt.Errorf("task pool ids %d, %d at %d not strictly increasing", e.tasks[i-1].ID, e.tasks[i].ID, i)
		}
	}
	if n := count(e.usedW); n != e.deadW {
		return fmt.Errorf("%d worker tombstones, counter %d", n, e.deadW)
	}
	if n := count(e.usedT); n != e.deadT {
		return fmt.Errorf("%d task tombstones, counter %d", n, e.deadT)
	}
	return nil
}

func count(marks []bool) int {
	n := 0
	for _, m := range marks {
		if m {
			n++
		}
	}
	return n
}
