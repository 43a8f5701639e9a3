package main

import (
	"fmt"
	"time"
)

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order: a run's last output line carries exactly endToEnd when untraced
// and exactly perLayer when traced, so every workload defines each of
// them. Workload-specific metrics are printed on the lines above.
var (
	endToEnd = []string{
		"events_per_s", "instant_p50_ms", "instant_p95_ms", "wall_s", "setup_s", "peak_rss_mb",
	}
	perLayer = []string{
		"dataset.generate_ms", "fwio.load_ms",
		"lda.train_ms", "mobility.fit_ms", "entropy.compute_ms", "rrr.build_ms", "rrr.sets",
		"influence.prepare_ms", "influence.cached_tasks_max", "influence.cached_users_max",
		"assign.pairs_ms", "assign.feasible_pairs", "assign.solve_ms",
		"assign.components_max", "assign.largest_component_max",
		"engine.fire_ms", "engine.self_ms", "engine.instants", "engine.online_max", "engine.open_max",
		"bench.trace_overhead_pct",
	}
)

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics []metric

func (m *metrics) add(name string, v float64, unit string) {
	*m = append(*m, metric{Name: name, Value: v, Unit: unit})
}

// addPercentile adds the p-th percentile of xs (in ms) when the sample
// supports it, and reports whether it did.
func (m *metrics) addPercentile(name string, xs []float64, p float64) bool {
	v, ok := percentile(xs, p)
	if ok {
		m.add(name, v, "ms")
	}
	return ok
}

// requirePercentile is addPercentile for a metric the run must report.
func (m *metrics) requirePercentile(name string, xs []float64, p float64) error {
	if !m.addPercentile(name, xs, p) {
		return fmt.Errorf("%s: %d samples cannot support p%g", name, len(xs), p)
	}
	return nil
}

func (m metrics) lookup(name string) (metric, bool) {
	for _, x := range m {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}

// instantSample is one assignment instant seen from outside the engine:
// its wall time, the phase durations it reports, and the pool and cache
// sizes around it. For the offline workload an instant is one figure
// job: snapshot, cold influence preparation, feasibility scan and the
// five algorithms' solves.
type instantSample struct {
	fire, prepare, pairs, solve time.Duration
	feasible                    int
	components, largest         int
	cachedTasks, cachedUsers    int
	online, open                int
}

// addLayers adds the per-layer instant metrics: per-instant means of
// each phase, their p95 where the sample supports one, and the maxima of
// the pool, cache and component sizes. suffix distinguishes a repeat at
// another parallelism (".p1").
func (m *metrics) addLayers(samples []instantSample, suffix string) {
	var fire, prep, pairs, solve, self, feasible []float64
	var compMax, largestMax, tasksMax, usersMax, onlineMax, openMax int
	for _, s := range samples {
		fire = append(fire, ms(s.fire))
		prep = append(prep, ms(s.prepare))
		pairs = append(pairs, ms(s.pairs))
		solve = append(solve, ms(s.solve))
		self = append(self, ms(s.fire-s.prepare-s.pairs-s.solve))
		feasible = append(feasible, float64(s.feasible))
		compMax = max(compMax, s.components)
		largestMax = max(largestMax, s.largest)
		tasksMax = max(tasksMax, s.cachedTasks)
		usersMax = max(usersMax, s.cachedUsers)
		onlineMax = max(onlineMax, s.online)
		openMax = max(openMax, s.open)
	}
	m.add("influence.prepare_ms"+suffix, mean(prep), "ms")
	m.addPercentile("influence.prepare_p95_ms"+suffix, prep, 95)
	m.add("influence.cached_tasks_max"+suffix, float64(tasksMax), "count")
	m.add("influence.cached_users_max"+suffix, float64(usersMax), "count")
	m.add("assign.pairs_ms"+suffix, mean(pairs), "ms")
	m.add("assign.feasible_pairs"+suffix, mean(feasible), "count")
	m.add("assign.solve_ms"+suffix, mean(solve), "ms")
	m.addPercentile("assign.solve_p95_ms"+suffix, solve, 95)
	m.add("assign.components_max"+suffix, float64(compMax), "count")
	m.add("assign.largest_component_max"+suffix, float64(largestMax), "count")
	m.add("engine.fire_ms"+suffix, mean(fire), "ms")
	m.add("engine.self_ms"+suffix, mean(self), "ms")
	m.add("engine.instants"+suffix, float64(len(samples)), "count")
	m.add("engine.online_max"+suffix, float64(onlineMax), "count")
	m.add("engine.open_max"+suffix, float64(openMax), "count")
}

// addTraceOverhead reports the traced pass's wall time against the
// untraced one's, in percent.
func (m *metrics) addTraceOverhead(traced, untraced time.Duration) {
	m.add("bench.trace_overhead_pct", 100*(float64(traced)-float64(untraced))/float64(untraced), "%")
}

// addMedianMs reports the median of repeated timings in milliseconds.
func (m *metrics) addMedianMs(name string, ds []time.Duration) {
	m.add(name, median(durationsMs(ds)), "ms")
}

// setupReps is how often a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 3
