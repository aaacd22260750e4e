package core

// Incremental (delta) screening: re-screening a catalogue version that
// differs from an already-screened one by a small dirty set of k objects.
// Only pairs with a dirty member can be new, so the grid is used inside out
// (stamp-and-probe, DESIGN.md §11): per sampling step each dirty object
// stamps its own cell and the in-cube cells around it in a small lock-free
// grid set, and every object looks at the one cell it is in — finding a
// stamp exactly when the two cells are adjacent, the full scan's criterion.
// The refined conjunctions are merged with the prior result: prior entries
// touching a dirty or removed object are stale and dropped, the rest are
// retained verbatim. An object's cell comes from one of two sources: a valid
// row of the session's key track (track.go), or positionAt, which then notes
// the key into the row. delta_test.go pins candidates and merge against a
// fresh full screen over chained deltas.

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/lockfree"
)

// DeltaInput parameterises an incremental screen. Prior must be the
// conjunction set of a screen of the previous catalogue version with the
// same variant and configuration (threshold, sampling, duration, epoch);
// Dirty the IDs added or updated since that screen; Removed the IDs removed
// since. The catalogue layer (internal/catalog, DirtyBetween) produces
// exactly these sets.
type DeltaInput struct {
	Prior   []Conjunction
	Dirty   []int32
	Removed []int32

	// session, set by Session.Screen only, carries the key track from pass to
	// pass; without one no row is valid and nothing is kept.
	session *Session
}

// bitset helpers over ID-indexed []uint64 words. IDs are validated
// non-negative before any set; has tolerates IDs beyond the sized range
// (clean objects above every dirty ID) by reporting false.
func bitsetWords(maxID int32) int { return (int(maxID) >> 6) + 1 }

func bitsetSet(b []uint64, id int32) { b[int(id)>>6] |= 1 << (uint(id) & 63) }

func bitsetHas(b []uint64, id int32) bool {
	w := int(id) >> 6
	if w >= len(b) {
		return false
	}
	return b[w]>>(uint(id)&63)&1 != 0
}

// Stamp-table geometry: own cell plus 26 neighbours, and 8 slots per stamp so
// the probe of an unstamped cell — nearly every probe — ends on its first slot.
const (
	stampsPerObject    = 27
	stampSlotsPerEntry = 8
)

// stampingPays is the crossover between stamping and a full screen: 27
// insertions per dirty object per step, into a table that outgrows the cache
// with k, against one per object. Measured (DESIGN.md §11), the passes cost
// the same at k = N/8 when sampling is all the work, and stamping is still
// ahead there when candidate volume is. Computed from the pass's own inputs.
func stampingPays(dirty, objects int) bool { return 8*dirty <= objects }

// validate checks a delta against the population's ID index — IDs in the
// packed-pair range, nothing removed still present — and returns the largest
// ID named, −1 for an empty delta.
func (delta *DeltaInput) validate(idx map[int32]int32) (maxID int32, err error) {
	maxID = -1
	for _, id := range delta.Dirty {
		if id < 0 || id > lockfree.MaxID {
			return 0, fmt.Errorf("core: delta dirty ID %d out of range", id)
		}
		maxID = max(maxID, id)
	}
	for _, id := range delta.Removed {
		if id < 0 || id > lockfree.MaxID {
			return 0, fmt.Errorf("core: delta removed ID %d out of range", id)
		}
		if _, present := idx[id]; present {
			return 0, fmt.Errorf("core: delta removed ID %d is still in the population", id)
		}
		maxID = max(maxID, id)
	}
	return maxID, nil
}

// setDelta validates the delta and decides, once, whether the pass is
// incremental: on the grid below the crossover, on the aabb always. An
// incremental pass emits only pairs with a dirty member — the aabb's window
// query consults r.dirty, the grid stamps r.dirtyIdx into the stamp table —
// and the frame's merge consults r.touched (dirty ∪ removed). Everything
// drawn here is pooled and handed back by release with the run's other
// structures.
func (r *run) setDelta(delta *DeltaInput) error {
	maxID, err := delta.validate(r.idx)
	if err != nil {
		return err
	}
	words := bitsetWords(maxID) // 0 for the empty delta's −1
	r.dirty = r.pool.GetBitset(words)
	r.touched = r.pool.GetBitset(words)
	r.incremental = r.grid == nil || stampingPays(len(delta.Dirty), len(r.sats))
	stamping := r.incremental && r.grid != nil
	if stamping {
		r.dirtyIdx = make([]int32, 0, len(delta.Dirty))
	}
	for _, id := range delta.Dirty {
		// A repeated ID stamps once, one absent from the population never.
		if i, present := r.idx[id]; present && stamping && !bitsetHas(r.dirty, id) {
			r.dirtyIdx = append(r.dirtyIdx, i)
		}
		bitsetSet(r.dirty, id)
		bitsetSet(r.touched, id)
	}
	for _, id := range delta.Removed {
		bitsetSet(r.touched, id)
	}
	r.stats.DirtyObjects = len(delta.Dirty)
	if k := len(r.dirtyIdx); stamping {
		r.gset = r.pool.GetGridSet(stampSlotsPerEntry*stampsPerObject*k, stampsPerObject*k)
		r.stats.GridSlots = r.gset.Slots()
		r.dirtyKeys = r.pool.GetKeyBuf(k)[:k]
		r.track = delta.session.trackFor(r)
		r.stats.TrackBytes = r.track.bytes()
	}
	return nil
}

// sampleStepsStamped is the delta pass's step loop: reset the stamp table,
// stamp every dirty object, let every object probe its own cell into the
// per-worker candidate buffers. Insertion accounts all of it (propagation
// included); Detection is the collect's. Keys come from positionAt or from
// rows positionAt filled, so they and the out-of-bounds count are the full
// screen's. The rows this pass writes count only once every step is through.
func (r *run) sampleStepsStamped() error {
	stampFn, probeFn := r.stampRange, r.probeRange
	r.stats.TrackedObjects = r.track.begin(r.dirtyIdx)
	for step := 0; step < r.steps; step++ {
		if err := r.cancelled(); err != nil {
			return err
		}
		oobBefore := r.oob.Load()
		tIns := time.Now()
		r.stepTime, r.scanStep = float64(step)*r.sps, uint32(step)
		r.gset.Reset()
		if err := parallelForWorkers(r.ctx, r.workers, len(r.dirtyIdx), stampFn); err != nil {
			return err
		}
		if err, ok := r.insertErr.Load().(error); ok {
			return err
		}
		// Dirty objects probe too, now that every stamp is in, from the cell
		// they stamped: their position is already taken. A dirty–dirty pair is
		// found from both sides; collectPairs drops the repeat.
		for j, key := range r.dirtyKeys {
			if key != lockfree.EmptySlot {
				r.scanBufs[0] = r.appendStamped(r.scanBufs[0], key, r.sats[r.dirtyIdx[j]].ID)
			}
		}
		if err := parallelForWorkers(r.ctx, r.workers, len(r.sats), probeFn); err != nil {
			return err
		}
		r.stats.Insertion += time.Since(tIns)
		r.observeStep(step, len(r.sats)-int(r.oob.Load()-oobBefore))
	}
	r.track.commit()
	return nil
}

// stampRange stamps dirty objects [lo, hi) of r.dirtyIdx at the published
// step time; object j owns stamp-table entries 27·j … 27·j+26. Only in-cube
// cells are stamped (the scan's bounds rule); an object outside the cube stamps
// nothing and counts out of bounds. The first insertion failure is latched.
// A dirty object's row was opened by begin, so its new keys replace the old.
func (r *run) stampRange(_, lo, hi int) {
	var nbuf [stampsPerObject - 1]uint64
	for j := lo; j < hi; j++ {
		i := int(r.dirtyIdx[j])
		pos := r.positionAt(i, r.stepTime)
		coord, ok := r.grid.CoordOf(pos)
		if !ok {
			r.dirtyKeys[j] = lockfree.EmptySlot
			r.track.note(i, r.scanStep, lockfree.EmptySlot)
			r.oob.Add(1)
			continue
		}
		r.dirtyKeys[j] = r.grid.Key(coord)
		r.track.note(i, r.scanStep, r.dirtyKeys[j])
		id, entry := r.sats[i].ID, int32(stampsPerObject*j)
		err := r.gset.Insert(r.dirtyKeys[j], entry, id, pos)
		for n, key := range r.grid.NeighborKeys(coord, nbuf[:0]) {
			if err == nil {
				err = r.gset.Insert(key, entry+1+int32(n), id, pos)
			}
		}
		if err != nil {
			r.insertErr.CompareAndSwap(nil, fmt.Errorf("core: grid insertion: %w", err))
			return
		}
	}
}

// probeRange lets the clean objects of [lo, hi) look up the one cell they are
// in, into worker w's buffer; sampleStepsStamped probed the dirty ones already.
// A valid row supplies the key and the ID; a dirty row is never valid (begin),
// so stampRange and probeRange never solve or note the same object.
func (r *run) probeRange(w, lo, hi int) {
	buf, oob, tr := r.scanBufs[w], 0, r.track
	for i := lo; i < hi; i++ {
		if tr.valid(i) {
			buf = r.appendStamped(buf, tr.advance(i, r.scanStep), tr.ids[i])
			continue
		}
		id := r.sats[i].ID
		if bitsetHas(r.dirty, id) {
			continue
		}
		key, ok := r.grid.KeyOf(r.positionAt(i, r.stepTime))
		if !ok {
			tr.note(i, r.scanStep, lockfree.EmptySlot)
			oob++
			continue
		}
		tr.note(i, r.scanStep, key)
		buf = r.appendStamped(buf, key, id)
	}
	r.scanBufs[w] = buf
	if oob > 0 {
		r.oob.Add(uint64(oob))
	}
}

// appendStamped appends to buf a packed (id, dirty object) candidate for
// every stamp in the cell with the given key, the object's own stamp aside.
func (r *run) appendStamped(buf []uint64, key uint64, id int32) []uint64 {
	for e := r.gset.Head(key); e >= 0; e = r.gset.Next(e) {
		if other := r.gset.Entry(e).ID; other != id {
			buf = append(buf, lockfree.PackPair(id, other, r.scanStep))
		}
	}
	return buf
}

// mergeWithPrior folds the retained prior conjunctions into the freshly
// refined ones. Fresh entries all involve at least one dirty object and
// retained entries none, so the two sets are disjoint by construction — no
// dedup pass is needed, only the re-sort.
func (r *run) mergeWithPrior(fresh []Conjunction, prior []Conjunction) []Conjunction {
	out := make([]Conjunction, 0, len(prior)+len(fresh))
	for _, c := range prior {
		if bitsetHas(r.touched, c.A) || bitsetHas(r.touched, c.B) {
			continue
		}
		out = append(out, c)
	}
	r.stats.PriorRetained = len(out)
	out = append(out, fresh...)
	slices.SortFunc(out, CompareConjunctions)
	return out
}

// degenerateDeltaMerge handles the <2-satellite population, where no run is
// built: the result is the prior with every touched pair dropped (with at
// most one object left, nothing fresh can exist), and nothing without a delta.
func degenerateDeltaMerge(delta *DeltaInput) []Conjunction {
	if delta == nil {
		return nil
	}
	touched := func(id int32) bool {
		return slices.Contains(delta.Dirty, id) || slices.Contains(delta.Removed, id)
	}
	var out []Conjunction
	for _, c := range delta.Prior {
		if !touched(c.A) && !touched(c.B) {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, CompareConjunctions)
	return out
}
