package influence

import (
	"fmt"
	"math"
	"testing"

	"dita/internal/assign"
	"dita/internal/mobility"
	"dita/internal/model"
	"dita/internal/paralleltest"
)

// feasible returns the instance's feasible pairs at the default speed —
// the pairs a streaming instant prepares influence for.
func feasible(inst *model.Instance) []assign.Pair {
	return assign.FeasiblePairs(inst, 5)
}

// taskRow is the test accessor for one cached task's willingness state:
// the row, its filled bitmap (nil for dense rows) and the task location.
func (s *Session) taskRow(id model.TaskID) (row []float32, filled []uint64, ok bool) {
	st, ok := s.tasks[uint64(id)]
	if !ok {
		return nil, nil, false
	}
	return st.row, st.filled, true
}

// checkWarmAgainstCold is the session gate at one instant: every prepared
// pair prices bit-identically warm and cold, every willingness entry the
// warm session holds bit-equals Equation 2 computed directly from the
// worker models, and under lazy masks every RRR root of every prepared
// pair's worker is filled. A warm row may hold more entries than the
// cold one (filled at earlier instants), so whole evaluators are not
// compared.
func checkWarmAgainstCold(t *testing.T, eng *Engine, sess *Session, in *model.Instance, pairs []assign.Pair, warm, cold *Evaluator, what string) {
	t.Helper()
	for _, p := range pairs {
		w, c := warm.Influence(int(p.W), int(p.T)), cold.Influence(int(p.W), int(p.T))
		if math.Float64bits(w) != math.Float64bits(c) {
			t.Fatalf("%s: pair (%d,%d) warm %v, cold %v", what, p.W, p.T, w, c)
		}
	}
	if sess.comps&Willingness == 0 {
		return
	}
	models := eng.truncatedModels(1)
	for _, task := range in.Tasks {
		row, filled, ok := sess.taskRow(task.ID)
		if !ok {
			continue // evicted by a capacity bound
		}
		for u, got := range row {
			if filled != nil && filled[u>>6]&(1<<(u&63)) == 0 {
				continue
			}
			var want float32
			if models[u] != nil {
				want = float32(models[u].Willingness(task.Loc))
			}
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s: task %d entry %d = %v, Equation 2 gives %v", what, task.ID, u, got, want)
			}
		}
	}
	if !sess.lazy {
		return
	}
	for _, p := range pairs {
		task := in.Tasks[p.T]
		_, filled, ok := sess.taskRow(task.ID)
		if !ok {
			continue
		}
		roots, _ := eng.Prop.RootCounts(int32(in.Workers[p.W].User))
		for _, r := range roots {
			if filled[r>>6]&(1<<(r&63)) == 0 {
				t.Fatalf("%s: task %d root %d of worker %d not filled", what, task.ID, r, p.W)
			}
		}
	}
}

// instantSequence builds a multi-instant scenario over the testWorld
// instance: instant 0 is the full pool, instant 1 drops some tasks and
// workers (expiry/assignment) while new ones arrive with fresh stable
// ids, and instant 2 churns again. Task IDs never repeat and stay stable
// for a task's lifetime, mirroring the streaming simulator.
func instantSequence(inst *model.Instance) []*model.Instance {
	i0 := &model.Instance{Now: inst.Now, Workers: inst.Workers, Tasks: inst.Tasks}

	// Instant 1: tasks 0 and 3 leave, two new tasks (stable ids 100, 101)
	// arrive; workers 1 and 4 leave, one returns as a new platform
	// arrival of a user not seen at instant 0.
	i1 := &model.Instance{Now: inst.Now + 1}
	for j, t := range inst.Tasks {
		if j == 0 || j == 3 {
			continue
		}
		i1.Tasks = append(i1.Tasks, t)
	}
	newTask := inst.Tasks[0]
	newTask.ID = 100
	newTask.Loc.X += 3
	i1.Tasks = append(i1.Tasks, newTask)
	newTask2 := inst.Tasks[3]
	newTask2.ID = 101
	newTask2.Categories = []model.CategoryID{2, 7}
	i1.Tasks = append(i1.Tasks, newTask2)
	for i, w := range inst.Workers {
		if i == 1 || i == 4 {
			continue
		}
		i1.Workers = append(i1.Workers, w)
	}
	i1.Workers = append(i1.Workers, model.Worker{
		ID: 50, User: 29, Loc: inst.Workers[0].Loc, Radius: 25,
	})

	// Instant 2: everything from instant 1 except the two newest tasks'
	// predecessors; one more arrival.
	i2 := &model.Instance{Now: inst.Now + 2}
	i2.Tasks = append(i2.Tasks, i1.Tasks[1:]...)
	i2.Workers = append(i2.Workers, i1.Workers[:len(i1.Workers)-2]...)
	return []*model.Instance{i0, i1, i2}
}

// TestSessionMatchesColdPrepare is the correctness gate of the session
// layer: at every instant of a carry-over sequence, for every component
// mask and at Parallelism 1, 2 and 8, the warm session must price every
// feasible pair bit-identically to a cold single-use session, hold only
// willingness entries equal to Equation 2, and have filled every root
// the pairs read (checkWarmAgainstCold).
func TestSessionMatchesColdPrepare(t *testing.T) {
	eng, inst := testWorld(t)
	const seed = 7
	for _, par := range paralleltest.WorkerCounts {
		for _, mask := range []Components{All, WP, AP, AW, Propagation, Willingness, Affinity, 0} {
			sess := eng.NewSession(mask, seed, par)
			for k, in := range instantSequence(inst) {
				pairs := feasible(in)
				warm := sess.Evaluate(in, pairs)
				cold := coldPrepare(eng, in, pairs, mask, seed)
				checkWarmAgainstCold(t, eng, sess, in, pairs, warm, cold,
					fmt.Sprintf("parallelism %d mask %v instant %d", par, mask, k))
			}
		}
	}
}

// TestSessionWilEntriesCountsDistinctRoots pins what WilEntries counts:
// on a fresh session, one entry per distinct (task, RRR root) over the
// workers of the feasible pairs; at the next instant only the (task,
// root) pairs no earlier instant filled. Willingness-only masks count a
// dense row per newly admitted task.
func TestSessionWilEntriesCountsDistinctRoots(t *testing.T) {
	eng, inst := testWorld(t)
	type key struct {
		task model.TaskID
		root int32
	}
	seen := map[key]bool{}
	sess := eng.NewSession(All, 7, 2)
	for k, in := range instantSequence(inst)[:2] {
		pairs := feasible(in)
		want := 0
		for _, p := range pairs {
			roots, _ := eng.Prop.RootCounts(int32(in.Workers[p.W].User))
			for _, r := range roots {
				if kk := (key{in.Tasks[p.T].ID, r}); !seen[kk] {
					seen[kk] = true
					want++
				}
			}
		}
		if want == 0 {
			t.Fatalf("instant %d reads no willingness entries; the count is never exercised", k)
		}
		sess.Evaluate(in, pairs)
		if got := sess.WilEntries(); got != want {
			t.Errorf("instant %d: WilEntries %d, want %d distinct new (task, root) pairs", k, got, want)
		}
	}
	sess.Evaluate(inst, nil)
	if got := sess.WilEntries(); got != 0 {
		t.Errorf("a pairless Evaluate under IA computed %d willingness entries, want 0 (rows fill on demand)", got)
	}

	dense := eng.NewSession(AW, 7, 1)
	dense.Evaluate(inst, feasible(inst))
	if got, want := dense.WilEntries(), len(inst.Tasks)*eng.Prop.Graph().N(); got != want {
		t.Errorf("IA-AW: WilEntries %d, want %d (one dense row per task)", got, want)
	}
}

// TestSessionReusesCarriedOverState asserts the cache actually hits:
// a task or worker present at two consecutive instants must be served
// from the identical cached state, not from an equal recomputation.
func TestSessionReusesCarriedOverState(t *testing.T) {
	eng, inst := testWorld(t)
	sess := eng.NewSession(All, 7, 1)
	seq := instantSequence(inst)
	ev0 := sess.Evaluate(seq[0], feasible(seq[0]))
	ev1 := sess.Evaluate(seq[1], feasible(seq[1]))
	// Task with stable id 1 is position 1 at instant 0 and position 0 at
	// instant 1.
	if ev0.tasks[1] == nil || ev0.tasks[1] != ev1.tasks[0] {
		t.Error("carried-over task's state was recomputed, not reused")
	}
	// Worker at instant-0 position 0 (user 0) is still position 0 at
	// instant 1.
	if ev0.users[0] == nil || ev0.users[0] != ev1.users[0] {
		t.Error("carried-over worker's state was recomputed, not reused")
	}
}

// TestSessionEvaluatorOutlivesLaterInstants pins the view contract: an
// evaluator reads the session's cached state in place, yet prices its
// prepared pairs the same after later instants filled more entries,
// admitted new entities and evicted departed ones, capacity-bound
// evictions included.
func TestSessionEvaluatorOutlivesLaterInstants(t *testing.T) {
	eng, inst := testWorld(t)
	seq := instantSequence(inst)
	for _, mask := range []Components{All, WP, AP, AW} {
		for _, capacity := range []int{0, 2} {
			sess := eng.NewSession(mask, 7, 2)
			sess.SetCapacity(capacity)
			type kept struct {
				ev    *Evaluator
				pairs []assign.Pair
				infl  []float64
			}
			var all []kept
			for _, in := range seq {
				pairs := feasible(in)
				ev := sess.Evaluate(in, pairs)
				k := kept{ev: ev, pairs: pairs}
				for _, p := range pairs {
					k.infl = append(k.infl, ev.Influence(int(p.W), int(p.T)))
				}
				all = append(all, k)
			}
			sess.Evaluate(&model.Instance{Now: inst.Now + 10}, nil)
			for n, k := range all {
				for i, p := range k.pairs {
					if got := k.ev.Influence(int(p.W), int(p.T)); math.Float64bits(got) != math.Float64bits(k.infl[i]) {
						t.Fatalf("%v capacity %d: instant %d pair (%d,%d) changed from %v to %v after later instants",
							mask, capacity, n, p.W, p.T, k.infl[i], got)
					}
				}
			}
		}
	}
}

// TestSessionEvictsDepartedEntities asserts carry-over memory is bounded
// by the live pool: entities absent from an instant lose their cache
// entries.
func TestSessionEvictsDepartedEntities(t *testing.T) {
	eng, inst := testWorld(t)
	sess := eng.NewSession(All, 7, 1)
	seq := instantSequence(inst)
	for k, in := range seq {
		sess.Evaluate(in, feasible(in))
		distinctUsers := map[model.WorkerID]bool{}
		for _, w := range in.Workers {
			distinctUsers[w.User] = true
		}
		if got, want := sess.CachedTasks(), len(in.Tasks); got != want {
			t.Errorf("instant %d: %d cached tasks, want %d", k, got, want)
		}
		if got, want := sess.CachedWorkers(), len(distinctUsers); got != want {
			t.Errorf("instant %d: %d cached workers, want %d", k, got, want)
		}
	}
	// A shrunken instant evicts everything else.
	small := &model.Instance{
		Now:     200,
		Workers: seq[2].Workers[:1],
		Tasks:   seq[2].Tasks[:1],
	}
	sess.Evaluate(small, feasible(small))
	if sess.CachedTasks() != 1 || sess.CachedWorkers() != 1 {
		t.Errorf("after shrinking to 1×1: %d tasks, %d workers cached",
			sess.CachedTasks(), sess.CachedWorkers())
	}
}

// TestSessionCapacityBoundExact is the unit gate of the bounded session:
// with a capacity far below the live pool, every instant's evaluator
// must still price every feasible pair bit-identically to a cold Prepare
// (evicted-but-live entities are cache misses that recompute
// identity-keyed state), while both caches hold at most the capacity
// after every instant.
func TestSessionCapacityBoundExact(t *testing.T) {
	eng, inst := testWorld(t)
	const capacity = 2
	sess := eng.NewSession(All, 7, 2)
	sess.SetCapacity(capacity)
	for k, in := range instantSequence(inst) {
		pairs := feasible(in)
		warm := sess.Evaluate(in, pairs)
		cold := coldPrepare(eng, in, pairs, All, 7)
		checkWarmAgainstCold(t, eng, sess, in, pairs, warm, cold, fmt.Sprintf("capped instant %d", k))
		if len(in.Tasks) <= capacity {
			t.Fatalf("instant %d offers %d tasks; the bound is never stressed", k, len(in.Tasks))
		}
		if got := sess.CachedTasks(); got > capacity {
			t.Errorf("instant %d: %d cached tasks, capacity %d", k, got, capacity)
		}
		if got := sess.CachedWorkers(); got > capacity {
			t.Errorf("instant %d: %d cached workers, capacity %d", k, got, capacity)
		}
	}
	// Lifting the bound restores live-pool tracking at the next instant.
	sess.SetCapacity(0)
	final := instantSequence(inst)[2]
	sess.Evaluate(final, feasible(final))
	if got, want := sess.CachedTasks(), len(final.Tasks); got != want {
		t.Errorf("after lifting the bound: %d cached tasks, want %d", got, want)
	}
}

// TestSessionCapacityEvictsOldestFirst pins the eviction order: FIFO by
// admission sequence, so the survivors of a capacity squeeze are exactly
// the most recently admitted entries — deterministic regardless of map
// iteration order.
func TestSessionCapacityEvictsOldestFirst(t *testing.T) {
	eng, inst := testWorld(t)
	sess := eng.NewSession(All, 7, 1)
	sess.SetCapacity(1)
	sess.Evaluate(inst, feasible(inst))
	if sess.CachedTasks() != 1 {
		t.Fatalf("%d cached tasks, want 1", sess.CachedTasks())
	}
	// The survivor is the last-admitted task: admission order is instance
	// order, so the sole retained entry must be the final task's — and it
	// must serve the next instant as a cache hit (same backing arrays).
	last := inst.Tasks[len(inst.Tasks)-1]
	st, ok := sess.tasks[uint64(last.ID)]
	if !ok {
		t.Fatal("last-admitted task was evicted: FIFO order broken")
	}
	probe := &model.Instance{Now: inst.Now + 1, Workers: inst.Workers[:1], Tasks: []model.Task{last}}
	pairs := allPairs(probe)
	warm := sess.Evaluate(probe, pairs)
	cold := coldPrepare(eng, probe, pairs, All, 7)
	checkWarmAgainstCold(t, eng, sess, probe, pairs, warm, cold, "survivor")
	if warm.tasks[0] != st {
		t.Fatal("survivor was recomputed, not served from cache")
	}
}

// TestSessionParallelismInvariant registers the session-backed online
// phase with the shared determinism harness: every instant's influence
// over its prepared pairs, its per-worker propagation sums and its
// willingness-entry count must be bit-identical at worker counts
// {1, 2, 8}. The values are recorded as each instant is evaluated: an
// evaluator is a view of the session's state, so comparing evaluators
// after the sequence would compare only the end state.
func TestSessionParallelismInvariant(t *testing.T) {
	eng, inst := testWorld(t)
	seq := instantSequence(inst)
	paralleltest.Invariant(t, func(par int) any {
		var infl, props [][]float64
		var entries []int
		for _, mask := range []Components{All, AW} {
			sess := eng.NewSession(mask, 7, par)
			for _, in := range seq {
				pairs := feasible(in)
				ev := sess.Evaluate(in, pairs)
				vals := make([]float64, len(pairs))
				for k, p := range pairs {
					vals[k] = ev.Influence(int(p.W), int(p.T))
				}
				ps := make([]float64, len(in.Workers))
				for w := range ps {
					ps[w] = ev.PropagationSum(w)
				}
				infl, props = append(infl, vals), append(props, ps)
				entries = append(entries, sess.WilEntries())
			}
		}
		return []any{infl, props, entries}
	})
}

// TestSessionRejectsDuplicateTaskIDs: identity hygiene is the session
// layer's one precondition; violating it must fail loudly, not silently
// alias two tasks' cached state.
func TestSessionRejectsDuplicateTaskIDs(t *testing.T) {
	eng, inst := testWorld(t)
	bad := &model.Instance{Now: inst.Now, Workers: inst.Workers}
	bad.Tasks = append(bad.Tasks, inst.Tasks[0], inst.Tasks[1])
	bad.Tasks[1].ID = bad.Tasks[0].ID
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate task IDs accepted")
		}
	}()
	eng.NewSession(All, 7, 1).Evaluate(bad, nil)
}

// TestPrepareSeedKeyedByStableIdentity: the fold-in stream of a task
// depends on its stable ID, not its position, so reordering an instance
// permutes — but never changes — the per-task state.
func TestPrepareSeedKeyedByStableIdentity(t *testing.T) {
	eng, inst := testWorld(t)
	ev := coldPrepare(eng, inst, allPairs(inst), All, 7)
	perm := &model.Instance{Now: inst.Now, Workers: inst.Workers}
	perm.Tasks = append(perm.Tasks, inst.Tasks[3:]...)
	perm.Tasks = append(perm.Tasks, inst.Tasks[:3]...)
	evPerm := coldPrepare(eng, perm, allPairs(perm), All, 7)
	n := len(inst.Tasks)
	for j := 0; j < n; j++ {
		pj := (j - 3 + n) % n // position of task j in the permuted instance
		for w := range inst.Workers {
			if ev.Influence(w, j) != evPerm.Influence(w, pj) {
				t.Fatalf("task %d: influence changed when the task moved from position %d to %d",
					inst.Tasks[j].ID, j, pj)
			}
		}
	}
}

// TestWillingnessModelsBuiltOnce: the truncated willingness models are
// derived once per engine and shared by every session, and building
// them gives the same models at any worker count.
func TestWillingnessModelsBuiltOnce(t *testing.T) {
	eng, _ := testWorld(t)
	eng.TopLocations = 3
	a := eng.NewSession(All, 7, 1)
	b := eng.NewSession(AW, 9, 8)
	if len(a.models) == 0 || &a.models[0] != &b.models[0] {
		t.Fatal("sessions of one engine hold separately built willingness models")
	}
	if eng.NewSession(AP, 7, 1).models != nil {
		t.Error("a mask without willingness holds willingness models")
	}
	paralleltest.Invariant(t, func(par int) any {
		return eng.truncatedModels(par)
	})
}

// TestSessionFallbacksParallelismInvariant: the filtered kernel's
// fallback count is summed per task in task order, so it is identical at
// any worker count. Every third user's model gets a shape outside the
// kernel's domain, so those entries always fall back and the count is
// not trivially zero; each fallback still stores the exact float32.
func TestSessionFallbacksParallelismInvariant(t *testing.T) {
	eng, inst := testWorld(t)
	seq := instantSequence(inst)
	exact := eng.truncatedModels(1)
	paralleltest.Invariant(t, func(par int) any {
		sess := eng.NewSession(All, 7, par)
		sess.models = make([]*mobility.WorkerModel, len(exact))
		for u, wm := range exact {
			if wm != nil && u%3 == 0 {
				steep := *wm
				steep.Shape = 20
				wm = &steep
			}
			sess.models[u] = wm
		}
		var counts [][2]int
		total := 0
		for _, in := range seq {
			sess.Evaluate(in, feasible(in))
			counts = append(counts, [2]int{sess.wilEntries, sess.wilFallbacks})
			total += sess.wilFallbacks
			for _, task := range in.Tasks {
				row, filled, _ := sess.taskRow(task.ID)
				for u, got := range row {
					if filled[u>>6]&(1<<(u&63)) == 0 || sess.models[u] == nil {
						continue
					}
					if want := float32(sess.models[u].Willingness(task.Loc)); math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("par %d: task %d user %d: stored %v, exact %v", par, task.ID, u, got, want)
					}
				}
			}
		}
		if total == 0 {
			t.Fatalf("par %d: no fallback counted over out-of-domain models", par)
		}
		return counts
	})
}

// TestSessionWarmEvaluateAllocations: an instant whose tasks, workers
// and willingness entries are all cached allocates only its evaluator
// and the evaluator's two pointer slices; the pair grouping and counts
// of fillRows are session scratch reused across instants.
func TestSessionWarmEvaluateAllocations(t *testing.T) {
	eng, inst := testWorld(t)
	pairs := feasible(inst)
	for _, mask := range []Components{All, WP, AW, AP} {
		sess := eng.NewSession(mask, 7, 1)
		sess.Evaluate(inst, pairs)
		if got := testing.AllocsPerRun(20, func() { sess.Evaluate(inst, pairs) }); got > 3 {
			t.Errorf("mask %v: warm Evaluate allocates %v times, want at most 3", mask, got)
		}
		if sess.wilEntries != 0 {
			t.Errorf("mask %v: warm Evaluate filled %d entries", mask, sess.wilEntries)
		}
	}
}
