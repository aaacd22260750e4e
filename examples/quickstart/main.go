// Quickstart: generate a synthetic population, screen it for conjunctions
// with the hybrid detector, and print the events.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	satconj "repro"
)

func main() {
	// A 5,000-object synthetic population, drawn from the catalogue-shaped
	// density model (LEO-heavy, like Fig. 9 of the paper).
	sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: 5000, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// Screen one hour with a 10 km rough threshold. The hybrid variant is
	// the default: a spatial-grid pre-filter plus classical orbital filters.
	res, err := satconj.Screen(sats, satconj.Options{
		ThresholdKm:     10,
		DurationSeconds: 3600,
	})
	if err != nil {
		log.Fatal(err)
	}

	events := res.Events(10) // one record per encounter; join minima within 10 s
	fmt.Printf("screened %d objects for 1 hour (%s backend)\n", len(sats), res.Backend)
	fmt.Printf("grid candidates: %d, filter-rejected: %d, refinements: %d\n",
		res.Stats.CandidatePairs, res.Stats.FilterRejected, res.Stats.Refinements)
	fmt.Printf("conjunction events below 10 km: %d\n\n", len(events))
	for i, c := range events {
		if i >= 10 {
			fmt.Printf("… and %d more\n", len(events)-10)
			break
		}
		fmt.Printf("  objects %5d / %-5d  TCA %8.1f s  PCA %7.3f km\n", c.A, c.B, c.TCA, c.PCA)
	}
}
