// Command restaurant recreates the paper's running example (Figure 1):
// two new restaurants publish promotion tasks and want workers who will
// spread the word, not merely the nearest ones.
//
// The program builds a small hand-crafted world — five candidate workers
// w1..w5 with distinct histories and social positions, two tasks s4 and
// s5 — trains the DITA framework on the history, prints the worker-task
// influence table (the analogue of Figure 1's table), and contrasts the
// greedy nearest-worker assignment with the influence-aware one.
package main

import (
	"fmt"
	"log"
	"sort"

	"dita/internal/assign"
	"dita/internal/core"
	"dita/internal/geo"
	"dita/internal/influence"
	"dita/internal/lda"
	"dita/internal/model"
	"dita/internal/socialgraph"
)

const (
	restaurantCategory = 0 // "restaurant" in our tiny taxonomy
	trafficCategory    = 1 // "traffic monitoring"
)

func main() {
	log.SetFlags(0)

	// Social network over 20 users. Users 0..4 are the candidate workers
	// w1..w5 of Figure 1; w4 (index 3) is a social hub connected to the
	// remaining 15 users, so anything w4 knows spreads widely.
	var edges []socialgraph.Edge
	add := func(a, b int32) {
		edges = append(edges, socialgraph.Edge{From: a, To: b}, socialgraph.Edge{From: b, To: a})
	}
	add(0, 1)
	add(1, 2)
	add(2, 4)
	for u := int32(5); u < 20; u++ {
		add(3, u) // w4's fan club
		if u > 5 {
			add(u, u-1)
		}
	}
	add(4, 5)
	graph := socialgraph.MustNew(20, edges)

	// Histories: w4 and the fan club perform restaurant tasks near the
	// city center; w3 monitors traffic on the outskirts; w5 mixes.
	histories := map[model.WorkerID]model.History{}
	docs := make([][]int32, 20)
	addHistory := func(u model.WorkerID, venue model.VenueID, loc geo.Point, hour float64, cat model.CategoryID) {
		histories[u] = append(histories[u], model.CheckIn{
			User: u, Venue: venue, Loc: loc,
			Arrive: hour, Complete: hour + 0.5,
			Categories: []model.CategoryID{cat},
		})
		docs[u] = append(docs[u], int32(cat))
	}
	// w1, w2: a few restaurant visits away from the new venues.
	addHistory(0, 10, geo.Point{X: 0.5, Y: 3.5}, 1, restaurantCategory)
	addHistory(0, 11, geo.Point{X: 1.0, Y: 3.0}, 2, restaurantCategory)
	addHistory(1, 12, geo.Point{X: 0.5, Y: 1.0}, 1, restaurantCategory)
	addHistory(1, 13, geo.Point{X: 1.0, Y: 1.5}, 2, trafficCategory)
	// w3: dedicated traffic monitor (low affinity for restaurant tasks).
	addHistory(2, 14, geo.Point{X: 3.5, Y: 0.5}, 1, trafficCategory)
	addHistory(2, 15, geo.Point{X: 3.0, Y: 1.0}, 2, trafficCategory)
	addHistory(2, 16, geo.Point{X: 3.5, Y: 1.5}, 3, trafficCategory)
	// w4: restaurant enthusiast who roams the center.
	addHistory(3, 17, geo.Point{X: 2.0, Y: 2.0}, 1, restaurantCategory)
	addHistory(3, 18, geo.Point{X: 2.5, Y: 2.5}, 2, restaurantCategory)
	addHistory(3, 19, geo.Point{X: 2.0, Y: 3.0}, 3, restaurantCategory)
	// w5: mixed tastes near the second venue.
	addHistory(4, 20, geo.Point{X: 3.8, Y: 3.8}, 1, restaurantCategory)
	addHistory(4, 21, geo.Point{X: 3.5, Y: 3.5}, 2, trafficCategory)
	// The fan club likes restaurants too, and lives near the center, so
	// w4's propagation lands on willing workers.
	for u := model.WorkerID(5); u < 20; u++ {
		addHistory(u, model.VenueID(22+int(u)), geo.Point{
			X: 1.5 + float64(u%4)*0.5,
			Y: 1.5 + float64(u%3)*0.5,
		}, float64(u%5)+1, restaurantCategory)
	}

	fw, err := core.Train(core.TrainingData{
		Graph:     graph,
		Histories: histories,
		Documents: docs,
		Vocab:     2,
		Records:   flatten(histories),
	}, core.Config{
		LDA: lda.Config{Topics: 2, Alpha: 0.5, TrainIters: 100, Seed: 7},
	})
	if err != nil {
		log.Fatalf("train: %v", err)
	}

	// Time instance t2: tasks s4 (center restaurant) and s5 (north-east
	// restaurant) become available; w1..w5 are online.
	inst := &model.Instance{
		Now: 100,
		Workers: []model.Worker{
			{ID: 0, User: 0, Loc: geo.Point{X: 0.8, Y: 3.2}, Radius: 4},
			{ID: 1, User: 1, Loc: geo.Point{X: 0.8, Y: 1.2}, Radius: 4},
			{ID: 2, User: 2, Loc: geo.Point{X: 2.2, Y: 1.4}, Radius: 4},
			{ID: 3, User: 3, Loc: geo.Point{X: 2.4, Y: 2.4}, Radius: 4},
			{ID: 4, User: 4, Loc: geo.Point{X: 3.6, Y: 3.6}, Radius: 4},
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Point{X: 2.1, Y: 1.9}, Publish: 100, Valid: 5,
				Categories: []model.CategoryID{restaurantCategory}, Venue: 100},
			{ID: 1, Loc: geo.Point{X: 3.9, Y: 3.9}, Publish: 100, Valid: 5,
				Categories: []model.CategoryID{restaurantCategory}, Venue: 101},
		},
	}

	// The table below prints every worker-task pair, feasible or not, so
	// influence is prepared over the whole cross product: an evaluator
	// answers only the pairs it was prepared for.
	var cross []assign.Pair
	for wIdx := range inst.Workers {
		for tIdx := range inst.Tasks {
			cross = append(cross, assign.Pair{W: int32(wIdx), T: int32(tIdx)})
		}
	}
	ev := fw.PrepareSession(influence.All, 1, 0).PreparePairs(inst, cross)

	fmt.Println("Worker-task influence at t2 (rows: tasks s4, s5):")
	fmt.Printf("%8s", "")
	for i := range inst.Workers {
		fmt.Printf("%10s", fmt.Sprintf("w%d", i+1))
	}
	fmt.Println()
	for tIdx := range inst.Tasks {
		fmt.Printf("%8s", fmt.Sprintf("s%d", tIdx+4))
		for wIdx := range inst.Workers {
			fmt.Printf("%10.4f", ev.Influence(wIdx, tIdx))
		}
		fmt.Println()
	}

	fmt.Println("\nGreedy (each task to its nearest unassigned worker):")
	greedy := nearestGreedy(inst)
	reportPairs(inst, ev, greedy)

	fmt.Println("\nInfluence-aware (IA):")
	set, _, _ := fw.AssignPreparedPairsTiled(inst, ev, assign.IA, assign.FeasiblePairs(inst, fw.Speed()), 1)
	var iaPairs [][2]int
	for _, pr := range set.Pairs {
		iaPairs = append(iaPairs, [2]int{int(pr.Worker), int(pr.Task)})
	}
	reportPairs(inst, ev, iaPairs)

	gSum, iaSum := pairsInfluence(ev, greedy), pairsInfluence(ev, iaPairs)
	fmt.Printf("\ntotal influence: greedy %.4f vs influence-aware %.4f\n", gSum, iaSum)
	if iaSum > gSum {
		fmt.Println("-> the influence-aware assignment promotes the restaurants better")
	}
}

func flatten(hists map[model.WorkerID]model.History) []model.CheckIn {
	var out []model.CheckIn
	ids := make([]model.WorkerID, 0, len(hists))
	for u := range hists {
		ids = append(ids, u)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, u := range ids {
		out = append(out, hists[u]...)
	}
	return out
}

// nearestGreedy assigns each task (in id order) to the nearest feasible
// unassigned worker — the straw-man strategy of the paper's introduction.
func nearestGreedy(inst *model.Instance) [][2]int {
	usedW := make([]bool, len(inst.Workers))
	var pairs [][2]int
	for tIdx, task := range inst.Tasks {
		best, bestD := -1, 0.0
		for wIdx, w := range inst.Workers {
			if usedW[wIdx] || !model.Feasible(w, task, inst.Now, 5) {
				continue
			}
			d := geo.Dist(w.Loc, task.Loc)
			if best < 0 || d < bestD {
				best, bestD = wIdx, d
			}
		}
		if best >= 0 {
			usedW[best] = true
			pairs = append(pairs, [2]int{best, tIdx})
		}
	}
	return pairs
}

func reportPairs(inst *model.Instance, ev *influence.Evaluator, pairs [][2]int) {
	for _, p := range pairs {
		w, s := p[0], p[1]
		fmt.Printf("  s%d -> w%d   influence %.4f, distance %.2f km\n",
			s+4, w+1, ev.Influence(w, s), geo.Dist(inst.Workers[w].Loc, inst.Tasks[s].Loc))
	}
}

func pairsInfluence(ev *influence.Evaluator, pairs [][2]int) float64 {
	sum := 0.0
	for _, p := range pairs {
		sum += ev.Influence(p[0], p[1])
	}
	return sum
}
