package core

import (
	"sync/atomic"
	"time"

	"repro/internal/lockfree"
)

// sampleStepsBatched is the step-batched form of step 2: batches of
// Config.ParallelSteps sampling steps run concurrently, each step owning a
// private grid instance (allocated once, reused across batches), while all
// steps share the lock-free conjunction pair set. This is the paper's
// data-parallel layout over (satellite, time) tuples: with p grids
// resident, the executor is saturated even when one step alone has too
// little work per satellite (§V-B/§V-E).
//
// Phase timings are accumulated from per-step spans, so under concurrency
// Insertion+Detection can exceed wall time; the *shares* remain the
// meaningful quantity, as in §V-C1.
func (r *run) sampleStepsBatched() error {
	batch := r.cfg.ParallelSteps
	if batch > r.steps {
		batch = r.steps
	}
	slotFactor := r.cfg.GridSlotFactor
	if slotFactor <= 0 {
		slotFactor = 2
	}
	// The batch's private grids come from (and return to) the run's pool, so
	// successive batched runs — and the steps within one run — recycle the
	// same instances.
	grids := make([]*lockfree.GridSet, batch)
	snaps := make([]*lockfree.GridSnapshot, batch)
	for i := range grids {
		grids[i] = r.pool.GetGridSet(int(slotFactor*float64(len(r.sats))), len(r.sats))
		snaps[i] = r.pool.GetSnapshot(grids[i].Slots(), len(r.sats))
	}
	defer func() {
		for i := range grids {
			r.pool.PutGridSet(grids[i])
			r.pool.PutSnapshot(snaps[i])
		}
	}()

	// Per-step grid occupancy for the observer; rounds that overflow and
	// retry repopulate it, and steps are only reported after a round
	// succeeds, so no step is observed twice. nil (no observer) costs
	// nothing.
	var inserted []int
	if r.observer != nil {
		inserted = make([]int, batch)
	}

	for base := 0; base < r.steps; base += batch {
		hi := base + batch
		if hi > r.steps {
			hi = r.steps
		}
		for { // retry loop for pair-set growth
			if err := r.cancelled(); err != nil {
				return err
			}
			var full atomic.Bool
			var firstErr atomic.Value
			var insNs, fzNs, cdNs atomic.Int64
			perr := r.exec.ParallelFor(r.ctx, hi-base, func(lo, hiK int) {
				scratch := scanScratchPool.Get().(*scanScratch)
				defer scanScratchPool.Put(scratch)
				for k := lo; k < hiK; k++ {
					overflow, n, ins, fz, cd, err := r.processStepSerial(uint32(base+k), grids[k], snaps[k], scratch)
					insNs.Add(int64(ins))
					fzNs.Add(int64(fz))
					cdNs.Add(int64(cd))
					if err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					if overflow {
						full.Store(true)
						return
					}
					if inserted != nil {
						inserted[k] = n
					}
				}
			})
			if err, ok := firstErr.Load().(error); ok {
				return err
			}
			if perr != nil {
				return perr
			}
			r.stats.Insertion += time.Duration(insNs.Load())
			r.stats.Freeze += time.Duration(fzNs.Load())
			r.stats.Detection += time.Duration(cdNs.Load())
			if !full.Load() {
				break
			}
			r.growPairs()
		}
		for k := base; k < hi; k++ {
			r.observeStep(k, insertedAt(inserted, k-base))
		}
	}
	return nil
}

// insertedAt guards the observer-only occupancy slice (nil without an
// observer, in which case observeStep ignores the value anyway).
func insertedAt(inserted []int, i int) int {
	if inserted == nil {
		return 0
	}
	return inserted[i]
}

// processStepSerial runs one sampling step start-to-finish on the calling
// goroutine: propagate, insert into the step's private grid, freeze it into
// the step's private snapshot, scan the snapshot into a scratch key buffer,
// and merge that buffer into the shared pair set. inserted reports how many
// satellites landed in the grid (for the observer). A cancelled run context
// aborts before the step starts, so a batch worker holding several steps
// still unwinds within ~one step.
func (r *run) processStepSerial(step uint32, gs *lockfree.GridSet, snap *lockfree.GridSnapshot, scratch *scanScratch) (overflow bool, inserted int, ins, fz, cd time.Duration, err error) {
	if err := r.cancelled(); err != nil {
		return false, 0, 0, 0, 0, err
	}
	tIns := time.Now()
	gs.Reset()
	inserted, err = r.buildRange(gs, float64(step)*r.sps, 0, len(r.sats))
	ins = time.Since(tIns)
	if err != nil {
		return false, inserted, ins, 0, 0, err
	}

	// The whole step already runs on one goroutine, so the freeze does too.
	tFz := time.Now()
	snap.Freeze(gs, 1)
	fz = time.Since(tFz)

	tCD := time.Now()
	scratch.pairs = r.scanSnapshot(snap, 0, snap.Slots(), step, scratch.pairs[:0], scratch)
	for _, key := range scratch.pairs {
		if _, insErr := r.pairs.InsertPacked(key); insErr != nil {
			overflow = true
			break
		}
	}
	cd = time.Since(tCD)
	return overflow, inserted, ins, fz, cd, nil
}
