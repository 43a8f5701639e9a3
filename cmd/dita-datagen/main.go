// Command dita-datagen generates a synthetic geo-social check-in dataset
// (the stand-in for Brightkite/FourSquare) and writes it to a directory
// as CSV files that dita-sim, dita-bench and the library's Load function
// can consume.
//
// Usage:
//
//	dita-datagen -preset bk -out ./data/bk
//	dita-datagen -preset fs -out ./data/fs -users 5000 -days 60 -seed 9
//
// -parallel bounds the generator's worker pool (0 = all cores); the
// written dataset is bit-identical at any setting.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"dita/internal/dataset"
	"dita/internal/model"
)

func main() {
	log.SetFlags(0)
	var (
		preset  = flag.String("preset", "bk", "dataset preset: bk or fs")
		out     = flag.String("out", "", "output directory (required)")
		users   = flag.Int("users", 0, "override number of users")
		venues  = flag.Int("venues", 0, "override number of venues")
		days    = flag.Int("days", 0, "override number of simulated days")
		rate    = flag.Float64("rate", 0, "override check-ins per user per day")
		cityKm  = flag.Float64("city-km", 0, "override world size in km")
		seed    = flag.Uint64("seed", 0, "override the generator seed")
		par     = flag.Int("parallel", 0, "generator worker pool bound (0 = all cores; output is identical at any setting)")
		summary = flag.Bool("summary", true, "print dataset summary statistics")
	)
	flag.Parse()
	if *out == "" {
		log.Fatal("missing required -out directory")
	}

	p, err := dataset.Preset(*preset)
	if err != nil {
		log.Fatal(err)
	}
	if *users > 0 {
		p.NumUsers = *users
	}
	if *venues > 0 {
		p.NumVenues = *venues
	}
	if *days > 0 {
		p.Days = *days
	}
	if *rate > 0 {
		p.CheckinsPerUserPerDay = *rate
	}
	if *cityKm > 0 {
		p.CityKm = *cityKm
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	p.Parallelism = *par

	start := time.Now() //dita:wallclock
	data, err := dataset.Generate(p)
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	if err := data.Save(*out); err != nil {
		log.Fatalf("save: %v", err)
	}
	fmt.Printf("dataset %q written to %s in %.1fs\n", p.Name, *out, time.Since(start).Seconds()) //dita:wallclock

	if *summary {
		fmt.Printf("  users      %d\n", p.NumUsers)
		fmt.Printf("  venues     %d\n", p.NumVenues)
		fmt.Printf("  friendships %d (directed edges %d)\n", data.Graph.M()/2, data.Graph.M())
		fmt.Printf("  check-ins  %d over %d days (%.2f/user/day realized)\n",
			data.NumCheckIns(), p.Days,
			float64(data.NumCheckIns())/float64(p.NumUsers)/float64(p.Days))
		maxDeg, active := 0, 0
		for u := int32(0); u < int32(p.NumUsers); u++ {
			if d := data.Graph.OutDegree(u); d > maxDeg {
				maxDeg = d
			}
			if len(data.UserCheckIns(model.WorkerID(u))) > 0 {
				active++
			}
		}
		fmt.Printf("  max degree %d, users with ≥1 check-in %d\n", maxDeg, active)
	}
}
