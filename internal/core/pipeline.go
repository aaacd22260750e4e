package core

// The step loop, of full screens and delta passes alike. Each step is build →
// scan: the build writes every object's {cell key, ID} into the step's entry
// buffer, plain stores into disjoint ranges; the scan sorts that buffer by key
// into the run's sort buffers, groups equal keys into cells and sweeps the
// cells for candidate pairs into the per-worker key buffers. A delta pass's
// build (buildDelta) leaves out the objects away from its dirty ones. The
// scan only reads the entry buffer, so with a second one the scan of step N
// runs beside the build of step N+1: steps build into a ring of entry
// buffers, ring[step&1], of one slot or two.
//
// On two slots ownership is handed off over a pair of depth-1 channels, never
// shared: the build writes ring[step&1] while the one scan in flight reads
// ring[(step−1)&1] — scan step−2 was joined before scan step−1 was dispatched
// — and every exit path (error, cancellation, completion) drains that scan
// before returning, so release() never races it and the pool stays balanced.

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

// sampleSteps runs every sampling step in order, warm-start caches intact.
// The ring gets its second slot, and the scan its own goroutine, when the run
// has workers to overlap with and more than one step to overlap; otherwise
// (one worker is also where the steady-state allocation budget is measured)
// each scan runs inline. Detection time on two slots overlaps insertion wall
// time, so the phase *shares* remain the meaningful quantity.
func (r *run) sampleSteps() error {
	ring := [2][]lockfree.Cell{r.entries, r.entries}
	var jobs chan scanJob
	var results chan scanResult
	if r.workers >= 2 && r.steps > 1 && !r.cfg.ablation.oneSlotRing {
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
	for step := 0; step < r.steps && err == nil; step++ {
		if err = r.cancelled(); err != nil {
			break
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
		if inFlight {
			inFlight = false
			if settle(<-results); err != nil {
				break
			}
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
	if inFlight {
		settle(<-results)
	}
	return err
}

// scan is §IV-A3's scan of one built step, timed in its two spans: sort the
// entry buffer (only read) stably into a sort buffer, out-of-cube entries
// dropped, and group it into cells there — serial, beside the next build on a
// two-slot ring — then sweep the cells into the per-worker buffers.
func (r *run) scan(j scanJob) scanResult {
	tSort := time.Now()
	r.scanStep = j.step
	n := len(r.cellBuf) / 2
	sorted := sortCells(j.entries, r.cellBuf[:n], r.cellBuf[n:], &r.sortHist)
	if len(r.scanIDs) < len(sorted) { // a delta pass lists few objects
		r.scanIDs, r.scanRadii = make([]int32, len(j.entries)), make([]float32, len(j.entries))
	}
	r.scanCells = groupCells(sorted, r.scanIDs, r.scanRadii)
	tSweep := time.Now()
	err := r.scanFork.do(r.ctx, r.workers, len(r.scanCells), r.scanFn)
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
