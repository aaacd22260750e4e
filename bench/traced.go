package main

import (
	"fmt"

	satconj "repro"
)

// runTraced is the traced run of any workload. Every workload reports
// every per-layer metric, so each run has three parts: the service stack
// on loopback (httpapi.* of the write and read paths), full screens under
// an Observer (core.*, pool.*, trace.*), and the isolated probes. What
// differs is which part is the workload itself and which is a short sample
// beside it: the service workload spends half its budget on deltas and
// screens its own starting catalogue (the final one depends on how many
// deltas fitted in, and the exact counters must repeat from run to run);
// a screening workload samples the service workload's stack with the
// minimum of deltas.
func runTraced(spec workloadSpec, seed uint64, budget runBudget, smoke bool, tr *tracer, r *workloadResult) error {
	svc, serviceTimed := spec, budget.timed/2
	if spec.Kind == kindScreen {
		svc, _ = lookupWorkload("service-hybrid-8k")
		svc, serviceTimed = svc.scaled(smoke), 0
	}
	service := func() error {
		sats, err := generatePopulation(svc, seed)
		if err != nil {
			return err
		}
		run, err := driveService(sats, svc.Variant, seed, budget.minDeltas, serviceTimed, tr, &r.tally)
		if err != nil {
			return fmt.Errorf("service stack: %w", err)
		}
		setServiceLayers(run, r)
		return nil
	}
	screens := func() error {
		s, err := setupScreener(spec, seed, &r.tally)
		if err != nil {
			return err
		}
		measureCoreLayers(s, spec.Name, budget, tr, r)
		return nil
	}

	// The workload's own part goes first, on the process state the untraced
	// run measures it on: pooled structures sized by another population
	// change the phase times.
	parts := []func() error{screens, service}
	if spec.Kind == kindService {
		parts = []func() error{service, screens}
		budget.timed /= 2 // the screens share the budget with the deltas
	} else {
		parts = append(parts, func() error { return verifyVariants(seed, budget.verifyObjects, smoke, &r.tally) })
	}
	for _, part := range parts {
		if err := part(); err != nil {
			return err
		}
	}
	return runProbes(budget, smoke, r)
}

// verifyVariants checks that the paper's two detectors and the all-on-all
// baseline agree on the first n objects of the shell population: the same
// unique pairs, each closest approach within a quarter of the threshold.
// (Not on the debris cloud: there the legacy filter chain loses pairs the
// grid finds, which is the program's open robustness item, not a
// benchmark failure.)
func verifyVariants(seed uint64, n int, smoke bool, t *tally) error {
	shell, _ := lookupWorkload("shell-grid-16k")
	sats, err := generatePopulation(shell.scaled(smoke), seed)
	if err != nil {
		return err
	}
	sats = sats[:n]
	var ref *satconj.Result
	for _, v := range []satconj.Variant{satconj.VariantLegacy, satconj.VariantGrid, satconj.VariantHybrid} {
		res, err := satconj.Screen(sats, screenOptions(v, screenWorkers()))
		switch {
		case err != nil:
			t.fail("verify: %s on %d objects: %v", v, n, err)
		case ref == nil:
			ref = res
			t.ok()
		default:
			if err := sameConjunctions(ref.Conjunctions, res.Conjunctions, thresholdKm/4); err != nil {
				t.fail("verify: %s vs %s on %d objects: %v", ref.Variant, v, n, err)
			} else {
				t.ok()
			}
		}
	}
	return nil
}

// runVerify is the -verify mode: the variant agreement on the shell
// population, and a short service run whose final snapshot must equal a
// from-scratch screen of the final catalogue.
func runVerify(o options) error {
	budget := newBudget(0, o.smoke)
	var t tally
	if err := verifyVariants(o.seed, budget.verifyObjects, o.smoke, &t); err != nil {
		return err
	}

	svc, _ := lookupWorkload("service-hybrid-8k")
	svc = svc.scaled(o.smoke)
	sats, err := generatePopulation(svc, o.seed)
	if err != nil {
		return err
	}
	if _, err := driveService(sats, svc.Variant, o.seed, budget.minDeltas, 0, nil, &t); err != nil {
		return err
	}
	fmt.Printf("verify: attempted=%d failed=%d\n", t.Attempted, t.Failed)
	for _, f := range t.Failures {
		fmt.Println("verify: FAILED:", f)
	}
	if t.Failed > 0 {
		return fmt.Errorf("verification failed")
	}
	return nil
}
