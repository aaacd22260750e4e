package core

// The step loop, of full screens and delta passes alike. Each step is build →
// scan: the build writes the {cell key, ID} of every object it lists into the
// step's entry buffer, plain stores into disjoint ranges; the scan sorts that
// buffer by key, through the run's sort buffer and back, groups equal keys
// into cells and sweeps the cells for candidate pairs into the per-worker key
// buffers. A full screen's build between knot steps leaves out the objects
// whose knot-interval boxes meet nobody's (listInterval), a delta pass's
// (buildDelta) those away from its dirty ones. The scan owns its entry buffer
// until it is joined, so with a second one the scan of step N runs beside the
// build of step N+1: steps build into a ring of entry buffers, ring[step&1],
// of two slots on a full screen with workers to overlap, else of one. A delta
// pass lists tens of objects a step: a hand-off would cost more than its scan.
//
// On two slots ownership is handed off over a pair of depth-1 channels, never
// shared: the build writes ring[step&1] while the one scan in flight sorts
// ring[(step−1)&1] — scan step−2 was joined before scan step−1 was dispatched
// — and every exit path (error, cancellation, completion) drains that scan
// before returning, so release() never races it and the pool stays balanced.
// The scan's gate may read the knots (motionTest.state), which only a knot
// step's build writes: with such a gate, a knot step joins the scan in flight
// before it builds, one step in m.

import (
	"time"

	"repro/internal/lockfree"
)

// scanJob hands a built entry buffer to the scan.
type scanJob struct {
	step    uint32
	entries []lockfree.Cell
	inCube  int // objects inside the cube at the step, for the observer
}

// scanResult reports one completed scan back to the build side.
type scanResult struct {
	step        int
	inCube      int           // scanJob.inCube
	sort, sweep time.Duration // the serial sort + group span and the parallel sweep span: together the CD share
	err         error
}

// sampleSteps runs every sampling step in order, warm-start caches intact. A
// full screen with workers to overlap and more than one step gets the ring's
// second slot and a scan goroutine; otherwise each scan runs inline (one
// worker is where the steady-state allocation budget is measured). Detection
// time on two slots overlaps insertion wall time, so the phase *shares*
// remain the meaningful quantity.
func (r *run) sampleSteps() error {
	ring := [2][]lockfree.Cell{r.entries, r.entries}
	var jobs chan scanJob
	var results chan scanResult
	if r.workers >= 2 && r.steps > 1 && !r.incremental && !r.cfg.ablation.oneSlotRing {
		ring[1] = r.pool.GetCellBuf(len(r.sats))[:len(r.sats)]
		defer r.pool.PutCellBuf(ring[1])
		// One long-lived scan goroutine per run, fed over depth-1 channels
		// (the depth lets build N+1 start before result N is consumed).
		// Spawning a goroutine per step would cost an allocation per step.
		jobs, results = make(chan scanJob, 1), make(chan scanResult, 1)
		go r.scanLoop(jobs, results)
	}

	var err error
	// settle accounts one finished scan; the first error of the run stands.
	settle := func(res scanResult) {
		r.stats.Sort += res.sort
		r.stats.Detection += res.sort + res.sweep
		if err == nil {
			if err = res.err; err == nil {
				r.observeStep(res.step, res.inCube)
			}
		}
	}
	inFlight := false
	join := func() { // settle the scan in flight, if any
		if inFlight {
			inFlight = false
			settle(<-results)
		}
	}
	for step := 0; step < r.steps && err == nil; step++ {
		if err = r.cancelled(); err != nil {
			break
		}
		if r.motion.knots != nil && step&(r.stride-1) == 0 {
			if join(); err != nil {
				break
			}
		}
		// On two slots the in-flight scan reads ring[(step-1)&1].
		tIns, oob := time.Now(), r.oob.Load()
		job := scanJob{step: uint32(step)}
		if job.entries, err = r.buildEntries(step, ring[step&1]); err != nil {
			break
		}
		job.inCube = len(r.sats) - int(r.oob.Load()-oob)
		r.stats.Insertion += time.Since(tIns)

		if jobs == nil {
			settle(r.scan(job))
			continue
		}
		// Join scan N−1 before dispatching scan N: at most one job is ever
		// in flight, and the observer still sees steps complete in order.
		if join(); err != nil {
			break
		}
		jobs <- job
		inFlight = true
	}
	if jobs != nil {
		close(jobs)
	}
	// Drain the outstanding scan on every exit path: the scan goroutine
	// touches the sort and candidate buffers until its result is posted, and
	// release() runs as soon as screen unwinds.
	join()
	return err
}

// scan is §IV-A3's scan of one built step, timed in its two spans: sort the
// entry buffer stably between the sort buffer and itself, out-of-cube entries
// dropped, and group the sorted entries into cells in the buffer they did not
// land in — serial, beside the next build on a two-slot ring — then sweep the
// cells into the per-worker buffers.
func (r *run) scan(j scanJob) scanResult {
	tSort := time.Now()
	r.scanStep = j.step
	r.scanMembers = sortCells(j.entries, r.cellBuf, j.entries, &r.sortHist)
	cells := r.cellBuf
	if len(r.scanMembers) > 0 && &r.scanMembers[0] == &cells[0] {
		cells = j.entries
	}
	r.scanCells = groupCells(r.scanMembers, cells)
	tSweep := time.Now()
	err := r.scanFork.do(r.ctx, r.workers, forkGrain, len(r.scanCells), r.scanFn)
	return scanResult{step: int(j.step), inCube: j.inCube, sort: tSweep.Sub(tSort), sweep: time.Since(tSweep), err: err}
}

// scanLoop is the scan goroutine: one scan per job, results posted in job
// order. It exits when the job channel closes and touches no run state
// afterwards, so the build side owns everything again as soon as the last
// result is drained.
func (r *run) scanLoop(jobs <-chan scanJob, results chan<- scanResult) {
	for j := range jobs {
		results <- r.scan(j)
	}
}
