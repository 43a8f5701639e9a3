// Command citysim runs a multi-day spatial-crowdsourcing simulation on a
// synthetic FourSquare-like city and compares all five assignment
// algorithms day by day — the library's answer to "which strategy should
// my platform run?". It prints a per-day metric table and a final
// average summary resembling the paper's evaluation output.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"dita"
)

func main() {
	log.SetFlags(0)
	var (
		users   = flag.Int("users", 900, "users in the simulated city")
		venues  = flag.Int("venues", 1100, "venues in the simulated city")
		days    = flag.Int("days", 12, "simulated days (last evalDays are evaluated)")
		evals   = flag.Int("eval-days", 3, "evaluation days at the end of the period")
		tasks   = flag.Int("tasks", 400, "tasks per time instance")
		workers = flag.Int("workers", 320, "workers per time instance")
		valid   = flag.Float64("valid", 5, "task valid time ϕ in hours")
		radius  = flag.Float64("radius", 25, "worker reachable radius r in km")
		seed    = flag.Uint64("seed", 7, "simulation seed")
	)
	flag.Parse()

	params := dita.FoursquareLike()
	params.NumUsers = *users
	params.NumVenues = *venues
	params.Days = *days
	params.Seed = *seed

	start := time.Now() //dita:wallclock
	data, err := dita.Generate(params)
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	fmt.Printf("city generated: %d users, %d venues, %d check-ins, %d friendships (%.1fs)\n",
		*users, *venues, data.NumCheckIns(), data.Graph.M()/2, time.Since(start).Seconds()) //dita:wallclock

	firstEval := *days - *evals
	if firstEval < 1 {
		log.Fatalf("need at least one training day before evaluation")
	}
	start = time.Now() //dita:wallclock
	fw, err := dita.Train(dita.TrainingDataFrom(data, float64(firstEval)*24), dita.Config{})
	if err != nil {
		log.Fatalf("train: %v", err)
	}
	fmt.Printf("DITA framework trained on %d days of history (%.1fs)\n\n",
		firstEval, time.Since(start).Seconds()) //dita:wallclock

	algorithms := []dita.Algorithm{dita.MTA, dita.IA, dita.EIA, dita.DIA, dita.MI}
	type agg struct {
		assigned       int
		ai, ap, travel float64
		cpu            time.Duration
		instances      int
	}
	totals := map[dita.Algorithm]*agg{}
	for _, alg := range algorithms {
		totals[alg] = &agg{}
	}

	for day := firstEval; day < *days; day++ {
		inst, err := data.Snapshot(dita.SnapshotParams{
			Day: day, NumTasks: *tasks, NumWorkers: *workers,
			ValidHours: *valid, RadiusKm: *radius, Seed: *seed,
		})
		if err != nil {
			log.Fatalf("snapshot day %d: %v", day, err)
		}
		pairs := dita.FeasiblePairs(inst, fw.Speed())
		ev := fw.PrepareSession(dita.All, uint64(day), 0).PreparePairs(inst, pairs)
		fmt.Printf("day %d — %d workers, %d tasks, %d feasible pairs\n",
			day, len(inst.Workers), len(inst.Tasks), len(pairs))
		fmt.Printf("  %-5s %9s %9s %9s %11s %10s\n",
			"alg", "assigned", "AI", "AP", "travel(km)", "cpu")
		for _, alg := range algorithms {
			set, m, _ := fw.AssignPreparedPairsTiled(inst, ev, alg, pairs, 1)
			if err := set.Validate(len(inst.Tasks), len(inst.Workers)); err != nil {
				log.Fatalf("%v produced an invalid assignment: %v", alg, err)
			}
			fmt.Printf("  %-5s %9d %9.4f %9.3f %11.2f %10s\n",
				alg, m.Assigned, m.AI, m.AP, m.TravelKm, m.CPU.Round(time.Millisecond))
			a := totals[alg]
			a.assigned += m.Assigned
			a.ai += m.AI
			a.ap += m.AP
			a.travel += m.TravelKm
			a.cpu += m.CPU
			a.instances++
		}
		fmt.Println()
	}

	fmt.Println("averages over all evaluation days:")
	fmt.Printf("  %-5s %9s %9s %9s %11s %10s\n",
		"alg", "assigned", "AI", "AP", "travel(km)", "cpu")
	for _, alg := range algorithms {
		a := totals[alg]
		n := float64(a.instances)
		fmt.Printf("  %-5s %9.1f %9.4f %9.3f %11.2f %10s\n",
			alg,
			float64(a.assigned)/n, a.ai/n, a.ap/n, a.travel/n,
			(a.cpu / time.Duration(a.instances)).Round(time.Millisecond))
	}
}
