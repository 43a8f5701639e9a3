// Session is the incremental online phase: where a cold rebuild treats
// every assignment instant afresh — re-folding every task through LDA,
// re-extracting every worker's RRR root list and computing willingness
// again — a Session carries that per-entity state across instants. The
// streaming protocol of the paper (Section VI) keeps unassigned workers
// online and unexpired tasks open between instants, so most of an
// instant's state was already computed at an earlier one; a Session
// computes influence state only for newly arrived tasks and workers and
// evicts entries the moment their task or worker leaves the pool.
//
// Willingness is filled on demand. if(ws, s) reads Pwil(wi, s) only at
// the roots wi of the RRR sets covering ws, so under masks with both
// willingness and propagation a task's willingness row is filled only at
// the roots of its feasible workers, and a per-row bitmap records which
// entries hold a value. Row and bitmap travel with the task across
// instants, so an entry is computed at most once per task lifetime. Only
// the willingness-only masks, which read a row's column sum, compute
// dense rows.
//
// The two kinds of row use different kernels. An on-demand entry is
// stored as a float32 and nothing reads more, so it comes from the
// filtered kernel mobility.(*WorkerModel).Willingness32: a table-driven
// log2 and exp2 per term instead of a Pow, checked against a derived
// error bound, with the exact kernel as fallback where the bound cannot
// decide the float32. Its result is float32(Willingness) bit for bit, so filtering
// changes no stored value; the session counts the fallbacks per instant.
// Dense rows keep the exact float64 Willingness, because their column
// sum adds the float64 values.
//
// Cache keys are stable identities, never instant-local positions: a task
// is keyed by its Task.ID (which the streaming simulator keeps stable
// across a task's whole lifetime) and a worker by its User id in the
// social graph. Per-task LDA fold-in randomness is likewise keyed by
// stable identity — the stream seed is randx.Mix(sessionSeed, taskID) —
// so a task's topic distribution is the same number at every instant it
// survives, whichever instant first computed it, and a cold rebuild (a
// fresh session per instant) reproduces every value the session serves
// bit for bit.
//
// Fresh work runs in deterministic chunks on the shared internal/parallel
// pool: each pending task or worker writes only to its own pre-inserted
// cache entry and draws only from its identity-keyed stream, so the
// resulting evaluator is bit-identical at any Parallelism setting.
package influence

import (
	"fmt"

	"dita/internal/assign"
	"dita/internal/geo"
	"dita/internal/mobility"
	"dita/internal/model"
	"dita/internal/parallel"
	"dita/internal/randx"
)

// taskState is the cached per-task influence state: the task's folded
// topic distribution (Affinity) and its willingness row over the social
// network (Willingness; row[u] = Pwil(u, task location), float32 to
// halve the rows' footprint). Under lazy masks (willingness and propagation)
// row and filled are allocated at first use and filled[u>>6] bit u&63
// marks row[u] as computed; under willingness-only masks row is dense
// and colSum is its sum.
type taskState struct {
	gen    uint64
	loc    geo.Point
	theta  []float64
	row    []float32
	filled []uint64
	colSum float64
}

// userState is the cached per-worker influence state, keyed by the
// worker's social-graph user id u: the user's topic mixture (theta; the
// session's uniform mixture for a user without history), the propagation
// sum Σ_{wi≠u} Ppro(u, wi), and under masks with both willingness and
// propagation, which weigh willingness by Ppro, the distinct roots wi of
// the RRR sets covering the user with Ppro(u, wi) for each
// (rrr.Collection.RootCounts).
type userState struct {
	gen     uint64
	u       int32
	theta   []float64
	roots   []int32
	ppro    []float64
	propSum float64
}

// Session owns the carry-over influence state of the online phase. Create
// one per streaming run (Engine.NewSession), call Evaluate once per
// assignment instant with the instant's feasible pairs, and the session
// computes state only for tasks and workers it has not seen — and
// willingness only where those pairs read it — evicting entries that
// left the pool.
//
// The evaluators a session returns are interchangeable with a fresh
// session's on the pairs they were prepared for: for the same
// instance, pairs, component mask and seed, every such pair's influence
// is bit-identical (the equivalence tests assert this), because all
// cached state is keyed by stable identity rather than by instant.
//
// A Session is not safe for concurrent use; build one per goroutine (they
// share the immutable Engine).
type Session struct {
	eng   *Engine
	comps Components
	seed  uint64
	par   int
	// lazy reports a mask with both willingness and propagation, whose
	// rows are filled on demand at the roots of feasible workers.
	lazy bool

	// gen is the current instant's generation stamp; entries whose stamp
	// is older at the end of Evaluate have left the pool and are evicted.
	gen uint64
	// models are the engine's truncated per-user willingness models
	// (nil under masks without willingness).
	models []*mobility.WorkerModel
	// uniform is the topic mixture of users without history, shared by
	// their states (nil under masks without affinity).
	uniform []float64
	tasks   map[uint64]*taskState
	users   map[int32]*userState
	// wilEntries counts the willingness entries the last Evaluate
	// computed, and wilFallbacks how many of those the filtered kernel
	// (mobility.WorkerModel.Willingness32) handed to the exact one.
	wilEntries   int
	wilFallbacks int

	// pendT/pendU are reusable scratch lists of cache misses; the
	// parallel fresh-work phase iterates them by index.
	pendT []pendingTask
	pendU []*userState
	// fillRows' reusable scratch: the instant's pairs grouped by task
	// (rowStart/rowW, CSR), each task's entry and fallback counts, the
	// evaluator being filled, and fillTask bound once to s.
	rowStart []int32
	rowW     []int32
	rowCount []fillCount
	fillEv   *Evaluator
	fillFn   func(worker, j int)
}

type fillCount struct{ entries, fallbacks int }

type pendingTask struct {
	key uint64
	j   int // position in the current instance
	st  *taskState
}

// NewSession returns an empty session for the given component mask and
// base seed. parallelism bounds the worker pool used for fresh per-task
// and per-worker state (<= 0 means all cores); the cached state and every
// evaluator are bit-identical at any setting.
func (e *Engine) NewSession(comps Components, seed uint64, parallelism int) *Session {
	s := &Session{
		eng:   e,
		comps: comps,
		seed:  seed,
		par:   parallel.Workers(parallelism),
		lazy:  comps&Willingness != 0 && comps&Propagation != 0,
		tasks: make(map[uint64]*taskState),
		users: make(map[int32]*userState),
	}
	if comps&Affinity != 0 {
		s.uniform = uniformTopics(e.LDA.Topics())
	}
	if comps&Willingness != 0 {
		s.models = e.willingnessModels(s.par)
	}
	if s.lazy {
		s.fillFn = s.fillTask
	}
	return s
}

// CachedTasks returns how many tasks currently have cached state (the
// open-task carry-over after the last Evaluate).
func (s *Session) CachedTasks() int { return len(s.tasks) }

// CachedWorkers returns how many distinct users currently have cached
// state.
func (s *Session) CachedWorkers() int { return len(s.users) }

// WilEntries returns how many willingness entries (Equation 2 values)
// the last Evaluate computed: the on-demand entries of lazy
// rows, or one dense row per newly admitted task under willingness-only
// masks. Entries served from cache are not counted, so a warm session
// reports at most what a fresh session would for the same instant.
func (s *Session) WilEntries() int { return s.wilEntries }

// Evaluate returns the evaluator for one assignment instant over its
// feasible pairs, reusing cached state for every task and worker seen at
// an earlier instant and computing fresh state — in deterministic
// parallel chunks — for the rest. State for tasks and workers absent
// from inst is evicted. With no pairs (an instant with an empty pool
// side) it is pure cache upkeep: arrivals are admitted ahead of the next
// assignment round and departures evicted, and lazy willingness rows are
// left for the instant whose pairs read them.
//
// The evaluator is valid only on pairs: under lazy masks willingness is
// filled only where those pairs read it, so querying any other pair may
// return a wrong value. Pairs index inst, as assign.FeasiblePairs and
// assign.TiledFeasiblePairs produce them.
//
// Task IDs must be unique within the instance and stable across the
// instants of a session: a given Task.ID must always denote the same
// task (location and categories), which is exactly what the streaming
// simulator's platform-level identities provide.
func (s *Session) Evaluate(inst *model.Instance, pairs []assign.Pair) *Evaluator {
	s.gen++
	ev := &Evaluator{
		comps: s.comps,
		users: make([]*userState, len(inst.Workers)),
		tasks: make([]*taskState, len(inst.Tasks)),
	}
	s.admitUsers(inst, ev.users)
	s.admitTasks(inst, ev.tasks)
	if s.lazy {
		s.fillRows(ev, pairs)
	}
	s.evict()
	return ev
}

// admitUsers stamps the instant's users, computes state for the ones the
// session has never seen, and points sts[i] at instance worker i's
// state.
func (s *Session) admitUsers(inst *model.Instance, sts []*userState) {
	s.pendU = s.pendU[:0]
	for i, w := range inst.Workers {
		u := int32(w.User)
		st, ok := s.users[u]
		if !ok {
			st = &userState{u: u}
			if s.comps&Affinity != 0 {
				st.theta = s.uniform
				if int(u) < len(s.eng.ThetaUser) && s.eng.ThetaUser[u] != nil {
					st.theta = s.eng.ThetaUser[u]
				}
			}
			s.users[u] = st
			s.pendU = append(s.pendU, st)
		}
		st.gen = s.gen
		sts[i] = st
	}
	if len(s.pendU) == 0 {
		return
	}
	parallel.For(s.par, len(s.pendU), func(_, i int) {
		st := s.pendU[i]
		if !s.lazy {
			// Only the Average Propagation term is read; propagation-free
			// variants still report it without letting it affect if().
			st.propSum = s.eng.Prop.PropagationSum(st.u)
			return
		}
		// The roots come sorted, so the sum's order — and every
		// influence value — is deterministic run to run.
		st.roots, st.ppro = s.eng.Prop.RootCounts(st.u)
		for i, root := range st.roots {
			if root != st.u {
				st.propSum += st.ppro[i]
			}
		}
	})
}

// admitTasks stamps the instant's tasks and computes state for newly
// arrived ones: the folded topics, and under willingness-only masks the
// dense willingness row. Per-task randomness is keyed by stable task
// identity via randx.Mix, so the computed state is independent of the
// task's position in the instance and of which instant first computed
// it. It points sts[j] at instance task j's state, and resets the
// instant's willingness entry and fallback counts.
func (s *Session) admitTasks(inst *model.Instance, sts []*taskState) {
	s.wilEntries, s.wilFallbacks = 0, 0
	if s.comps&(Affinity|Willingness) == 0 {
		return
	}
	s.pendT = s.pendT[:0]
	for j := range inst.Tasks {
		key := uint64(inst.Tasks[j].ID)
		st, ok := s.tasks[key]
		if !ok {
			st = &taskState{loc: inst.Tasks[j].Loc}
			s.tasks[key] = st
			s.pendT = append(s.pendT, pendingTask{key: key, j: j, st: st})
		} else if st.gen == s.gen {
			// Two tasks of one instance share an ID: the cache would
			// silently serve one task's state for the other. Fail loudly —
			// identity hygiene is the session layer's one precondition.
			panic(fmt.Sprintf("influence: duplicate task ID %d in instance; per-task state is keyed by stable identity", inst.Tasks[j].ID))
		}
		st.gen = s.gen
		sts[j] = st
	}
	if len(s.pendT) == 0 {
		return
	}
	nU := s.eng.Prop.Graph().N()
	dense := s.comps&Willingness != 0 && !s.lazy
	if dense {
		s.wilEntries = nU * len(s.pendT)
	}
	parallel.For(s.par, len(s.pendT), func(_, i int) {
		p := s.pendT[i]
		task := inst.Tasks[p.j]
		if s.comps&Affinity != 0 {
			doc := make([]int32, len(task.Categories))
			for k, c := range task.Categories {
				doc[k] = int32(c)
			}
			p.st.theta = s.eng.LDA.Infer(doc, randx.Mix(s.seed, p.key))
		}
		if dense {
			row := make([]float32, nU)
			sum := 0.0
			for u := 0; u < nU; u++ {
				wm := s.models[u]
				if wm == nil {
					continue
				}
				v := wm.Willingness(task.Loc)
				row[u] = float32(v)
				sum += v
			}
			p.st.row, p.st.colSum = row, sum
		}
	})
}

// fillRows computes the willingness entries the instant's pairs read:
// for each task, Pwil at every RRR root of every feasible worker, minus
// the entries an earlier instant already filled. The pairs are grouped
// by task (CSR, workers in pair order) so each task writes only its own
// row, bitmap and counts on the pool, and the per-task counts are summed
// sequentially; rows and counts are therefore identical at any
// Parallelism. The grouping and counts live in session scratch reused
// across instants.
func (s *Session) fillRows(ev *Evaluator, pairs []assign.Pair) {
	nT := len(ev.tasks)
	start := grow(s.rowStart, nT+1)
	clear(start)
	for _, p := range pairs {
		start[p.T+1]++
	}
	for j := 0; j < nT; j++ {
		start[j+1] += start[j]
	}
	byW := grow(s.rowW, len(pairs))
	for _, p := range pairs {
		byW[start[p.T]] = p.W
		start[p.T]++
	}
	// The placement pass advanced every start to its task's end; shift
	// back so start[j] is task j's first slot again.
	copy(start[1:], start[:nT])
	start[0] = 0
	s.rowStart, s.rowW = start, byW
	s.rowCount = grow(s.rowCount, nT)
	clear(s.rowCount)
	s.fillEv = ev
	parallel.For(s.par, nT, s.fillFn)
	s.fillEv = nil
	for _, c := range s.rowCount {
		s.wilEntries += c.entries
		s.wilFallbacks += c.fallbacks
	}
}

// fillTask fills task j's entries for fillRows and records its counts
// in rowCount[j].
func (s *Session) fillTask(_, j int) {
	ev := s.fillEv
	ws := s.rowW[s.rowStart[j]:s.rowStart[j+1]]
	if len(ws) == 0 {
		return
	}
	st := ev.tasks[j]
	if st.row == nil {
		nU := s.eng.Prop.Graph().N()
		st.row = make([]float32, nU)
		st.filled = make([]uint64, (nU+63)/64)
	}
	var c fillCount
	for _, w := range ws {
		for _, root := range ev.users[w].roots {
			word, bit := root>>6, uint64(1)<<(root&63)
			if st.filled[word]&bit != 0 {
				continue
			}
			st.filled[word] |= bit
			if wm := s.models[root]; wm != nil {
				v, fellBack := wm.Willingness32(st.loc)
				st.row[root] = v
				if fellBack {
					c.fallbacks++
				}
			}
			c.entries++
		}
	}
	s.rowCount[j] = c
}

// grow returns buf resized to n elements, reallocating only when its
// capacity is short; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// evict drops cached state whose task or worker was absent from the
// current instant (assigned, expired or gone offline). After each
// instant the caches therefore hold exactly the live pool: one user
// state per distinct user among the instant's workers and, under masks
// with affinity or willingness, one task state per task. That is their
// bound; the pools themselves are bounded only by the stream.
func (s *Session) evict() {
	for key, st := range s.tasks {
		if st.gen != s.gen {
			delete(s.tasks, key)
		}
	}
	for u, st := range s.users {
		if st.gen != s.gen {
			delete(s.users, u)
		}
	}
}
