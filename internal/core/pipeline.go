package core

// Step pipelining: the sequential sampling loop's per-step barrier keeps the
// scan phase (read-only over a frozen snapshot) serialised behind the next
// step's propagate/build, even though the two touch disjoint structures —
// the snapshot freeze copies everything the scan reads out of the live grid,
// so the grid is free to rebuild the moment Freeze returns. This file
// overlaps them: a two-slot snapshot ring lets the build side freeze step
// N+1 into one slot while a dedicated scan goroutine walks step N's frozen
// snapshot in the other.
//
// Ownership is handed off over a pair of depth-1 channels, never shared: at
// most one scan job is in flight, the build side freezes only into the slot
// the in-flight scan is NOT reading, and every exit path (error,
// cancellation, completion) drains the outstanding job before returning so
// release() never races a live scan and the pool stays balanced.

import (
	"time"

	"repro/internal/lockfree"
)

// pipelineEligible reports whether the run overlaps scan and build.
// Batched runs (ParallelSteps > 1) have their own concurrency scheme;
// single-worker runs have no parallelism to overlap with (and the
// steady-state allocation budget is measured there); single-step runs have
// nothing to pipeline.
func (r *run) pipelineEligible() bool {
	return !r.cfg.DisablePipeline && r.workers >= 2 && r.steps > 1
}

// scanJob hands a frozen snapshot to the scan goroutine.
type scanJob struct {
	step    uint32
	snap    *lockfree.GridSnapshot
	entries int // grid occupancy of the step, for the observer
}

// scanResult reports one completed scan back to the build side.
type scanResult struct {
	step    int
	entries int
	cd      time.Duration // scan + merge span (the CD share)
	err     error
}

// sampleStepsPipelined is the pipelined form of sampleStepsSequential:
// identical per-step work (propagate → insert → freeze → scan → merge, in
// step order, warm-start caches intact), but step N's scan runs on a
// dedicated goroutine while the main goroutine builds step N+1. Detection
// time therefore overlaps insertion wall time; as with the batched path,
// the phase *shares* remain the meaningful quantity.
func (r *run) sampleStepsPipelined() error {
	// The second ring slot; r.snap is the first. Same size, same pool, same
	// deferred return as the batch path's per-step snapshots.
	snap2 := r.pool.GetSnapshot(r.gset.Slots(), len(r.sats))
	defer r.pool.PutSnapshot(snap2)
	ring := [2]*lockfree.GridSnapshot{r.snap, snap2}

	// One long-lived scan goroutine per run, fed over depth-1 channels (the
	// depth lets build N+1 start before result N is consumed). Spawning a
	// goroutine per step would cost an allocation per sampling step.
	jobs := make(chan scanJob, 1)
	results := make(chan scanResult, 1)
	go r.scanLoop(jobs, results)

	inFlight := false
	var err error
	for step := 0; step < r.steps; step++ {
		if err = r.cancelled(); err != nil {
			break
		}
		oobBefore := r.oob.Load()

		tIns := time.Now()
		if err = r.buildGrid(step); err != nil {
			break
		}
		r.stats.Insertion += time.Since(tIns)

		// Freeze into the slot the in-flight scan (over ring[(step-1)&1])
		// is not reading.
		tFz := time.Now()
		sn := ring[step&1]
		sn.Freeze(r.gset, r.workers)
		r.stats.Freeze += time.Since(tFz)

		// Join scan N−1 before dispatching scan N: at most one job is ever
		// in flight, and the observer still sees steps complete in order.
		if inFlight {
			res := <-results
			inFlight = false
			r.stats.Detection += res.cd
			if res.err != nil {
				err = res.err
				break
			}
			r.observeStep(res.step, res.entries)
		}
		jobs <- scanJob{step: uint32(step), snap: sn, entries: len(r.sats) - int(r.oob.Load()-oobBefore)}
		inFlight = true
	}
	close(jobs)
	// Drain the outstanding scan on every exit path: the scan goroutine
	// touches the pair set and scan buffers until its result is posted, and
	// release() runs as soon as screen unwinds.
	if inFlight {
		res := <-results
		r.stats.Detection += res.cd
		if err == nil {
			if res.err != nil {
				err = res.err
			} else {
				r.observeStep(res.step, res.entries)
			}
		}
	}
	return err
}

// scanLoop is the scan goroutine: one generateCandidates per job, results
// posted in job order. It exits when the job channel closes and touches no
// run state afterwards, so the build side owns everything again as soon as
// the last result is drained.
func (r *run) scanLoop(jobs <-chan scanJob, results chan<- scanResult) {
	for j := range jobs {
		tCD := time.Now()
		err := r.generateCandidates(j.snap, j.step)
		results <- scanResult{step: int(j.step), entries: j.entries, cd: time.Since(tCD), err: err}
	}
}
