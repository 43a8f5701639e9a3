package engine

// FireCold fires the instant at now through a fresh influence session, so
// nothing carries over from earlier instants: the cold reference of the
// online phase. The fresh session then serves later instants, so firing
// every instant of a run through FireCold rebuilds the influence state
// from the trained models every time.
func FireCold(e *Engine, now float64) InstantResult {
	e.sess = e.fw.PrepareSession(e.cfg.Components, e.cfg.Seed, e.cfg.Parallelism)
	e.sess.SetCapacity(e.cfg.SessionCapacity)
	return e.Fire(now)
}
