package core

// Incremental (delta) screening: re-screening a catalogue version that
// differs from an already-screened one by a small dirty set of k objects.
// Only pairs with a dirty member can be new, so a delta pass runs the full
// screen's step loop over the dirty objects' neighbourhoods only (DESIGN.md
// §11): per sampling step each dirty object stamps its own cell and the 26
// around it into a small bitset, every clean object outside a stamped cell
// is left out of the step's sort and sweep, and the collect keeps the pairs
// with a dirty member. The refined conjunctions are merged with the prior
// result: prior entries touching a dirty or removed object are stale and
// dropped, the rest are retained verbatim. An object's cell comes from one of
// two sources: a valid row of the session's key track (track.go), or
// positionAt, which then notes the key into the row. delta_test.go pins
// candidates and merge against a fresh full screen over chained deltas.

import (
	"fmt"
	"math/bits"
	"slices"

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

// bitset helpers over []uint64 words indexed by ID or, in the stamp filter,
// by stampBit. IDs are validated non-negative before any set; has tolerates
// IDs beyond the sized range (clean objects above every dirty ID) by
// reporting false.
func bitsetWords(maxID int32) int { return (int(maxID) >> 6) + 1 }

func bitsetSet(b []uint64, id int32) { b[int(id)>>6] |= 1 << (uint(id) & 63) }

func bitsetHas(b []uint64, id int32) bool {
	w := int(id) >> 6
	if w >= len(b) {
		return false
	}
	return b[w]>>(uint(id)&63)&1 != 0
}

// stampingPays is the crossover between a delta pass and a full screen. Both
// build N objects per step; a delta pass adds 27 stamps per dirty object and
// refines ungated candidates, and saves the sort and sweep away from the dirty
// objects and, in a session, the solves of valid rows. Measured (DESIGN.md
// §11), at k = N/8 a pass without a track costs 1.03–1.18× a full screen and a
// session pass 0.61–0.64×; at N/4, 1.25–1.52× and 0.80–1.10×. Computed from the
// pass's own inputs.
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
// incremental: below the crossover (stampingPays) it is. An incremental pass
// sweeps only the entries its stamp filter lets through and collects only
// pairs with a dirty member (r.dirty), and the frame's merge consults
// r.touched (dirty ∪ removed). Everything drawn here is pooled and handed back
// by release with the run's other structures.
func (r *run) setDelta(delta *DeltaInput) error {
	maxID, err := delta.validate(r.idx)
	if err != nil {
		return err
	}
	words := bitsetWords(maxID) // 0 for the empty delta's −1
	r.dirty = r.pool.GetBitset(words)
	r.touched = r.pool.GetBitset(words)
	r.incremental = stampingPays(len(delta.Dirty), len(r.sats))
	if r.incremental {
		r.dirtyIdx = make([]int32, 0, len(delta.Dirty))
	}
	for _, id := range delta.Dirty {
		// A repeated ID stamps once, one absent from the population never.
		if i, present := r.idx[id]; present && r.incremental && !bitsetHas(r.dirty, id) {
			r.dirtyIdx = append(r.dirtyIdx, i)
		}
		bitsetSet(r.dirty, id)
		bitsetSet(r.touched, id)
	}
	for _, id := range delta.Removed {
		bitsetSet(r.touched, id)
	}
	r.stats.DirtyObjects = len(delta.Dirty)
	if r.incremental {
		// At least 64 bits per stamp, a power of two: a clean object in a cell
		// no dirty object stamped passes the filter with odds under 1/64.
		stampWords := 1 << bits.Len(uint(27*len(r.dirtyIdx)))
		r.stamps = r.pool.GetBitset(stampWords)
		r.stampShift = uint(64 - bits.Len(uint(64*stampWords-1)))
		// A cell's key and its neighbours' differ by ±1 in each field, which
		// never carries (spatial.Grid): an out-of-cube neighbour's key is one
		// no entry has.
		fb := r.grid.FieldBits()
		for n := range r.around {
			r.around[n] = uint64(int64(n/9-1)<<(2*fb) + int64(n/3%3-1)<<fb + int64(n%3-1))
		}
		r.track = delta.session.trackFor(r)
		r.stats.TrackBytes = r.track.bytes()
	}
	return nil
}

// buildDelta is a delta pass's build kernel for one step, in place of the full
// screen's buildRange: solve the dirty objects into their entry slots, stamp
// each one's cell and the 26 around it into the step's filter, then key every
// clean object and keep its entry only if its cell is stamped. A pair the
// sweep finds between two kept entries with a dirty member is therefore
// exactly a pair the full screen's sweep finds (DESIGN.md §11); a false
// positive of the filter only adds an entry no dirty object can pair with.
// The stamps, 27·k, are set serially: the filter is a plain bitset.
func (r *run) buildDelta() error {
	if err := parallelForWorkers(r.ctx, r.workers, len(r.dirtyIdx), r.dirtyFn); err != nil {
		return err
	}
	clear(r.stamps)
	for _, i := range r.dirtyIdx {
		if key := r.stepEntries[i].Key; key != lockfree.EmptySlot {
			for _, d := range r.around {
				bitsetSet(r.stamps, r.stampBit(key+d))
			}
		}
	}
	return parallelForWorkers(r.ctx, r.workers, len(r.sats), r.cleanFn)
}

// dirtyRange solves dirty objects [lo, hi) of r.dirtyIdx into their entry
// slots and notes their keys into their rows, which begin opened, so the new
// keys replace the old. One outside the cube gets lockfree.EmptySlot, which
// the sort drops, and stamps nothing.
func (r *run) dirtyRange(_, lo, hi int) {
	oob := 0
	for _, i := range r.dirtyIdx[lo:hi] {
		r.stepEntries[i] = lockfree.Cell{Key: r.solveKey(int(i), &oob), Lo: i}
	}
	if oob > 0 {
		r.oob.Add(uint64(oob))
	}
}

// stampBit is a cell key's bit in the stamp filter: a Fibonacci hash.
func (r *run) stampBit(key uint64) int32 { return int32(key * 0x9e3779b97f4a7c15 >> r.stampShift) }

// cleanRange keys the clean objects of [lo, hi) — from a valid row of the key
// track, else from positionAt, noting the key into the row — and writes each
// one's entry, its key lockfree.EmptySlot unless its cell is stamped.
// dirtyRange wrote the dirty objects' slots; a dirty row is never valid
// (begin), so the two never solve or note the same object.
func (r *run) cleanRange(_, lo, hi int) {
	oob, tr, step := 0, r.track, uint32(r.buildStep)
	for i := lo; i < hi; i++ {
		var key uint64
		switch {
		case tr.valid(i):
			key = tr.advance(i, step)
		case bitsetHas(r.dirty, r.sats[i].ID):
			continue
		default:
			key = r.solveKey(i, &oob)
		}
		if key != lockfree.EmptySlot && !bitsetHas(r.stamps, r.stampBit(key)) {
			key = lockfree.EmptySlot
		}
		r.stepEntries[i] = lockfree.Cell{Key: key, Lo: int32(i)}
	}
	if oob > 0 {
		r.oob.Add(uint64(oob))
	}
}

// solveKey is object i's cell key at the build step from positionAt, noted
// into its row; lockfree.EmptySlot, counted in *oob, outside the cube.
func (r *run) solveKey(i int, oob *int) uint64 {
	key := uint64(lockfree.EmptySlot)
	if _, c, ok := r.positionAt(i, r.buildStep); ok {
		key = r.grid.Key(c)
	} else {
		*oob++
	}
	r.track.note(i, uint32(r.buildStep), key)
	return key
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
