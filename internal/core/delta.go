package core

// Incremental (delta) screening: re-screening a catalogue version that
// differs from an already-screened one by a small dirty set of k objects.
// Only pairs with a dirty member can be new, so a delta pass runs the full
// screen's step loop over the dirty objects' neighbourhoods only (DESIGN.md
// §11): per window it builds the objects whose boxes meet a dirty object's
// (track.go), per step a stamp filter of the dirty cells and the 26 around
// each drops the rest from the sort and sweep, and the collect keeps pairs
// with a dirty member. Prior entries touching a dirty or removed object are
// dropped, the rest retained verbatim. delta_test.go and window_test.go pin
// candidates and merge against fresh full screens over chained deltas.

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/lockfree"
	"repro/internal/spatial"
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

// stampingPays is the crossover between a delta pass and a full screen.
// Measured (DESIGN.md §11) at k = N/8, a trackless pass costs 1.06–1.16× a
// full screen and a session pass, listing every valid row (boxesPay),
// 0.58–0.72×; at N/16 0.93–0.96× and 0.43–0.55×. Computed from the pass's
// own inputs.
func stampingPays(dirty, objects int) bool { return 8*dirty <= objects }

// boxesPay is the crossover between listing a window's hits and every valid
// row: the index walks grow with k, the reads they save do not. Measured
// (DESIGN.md §11) between N/16 and N/32 on 4k grid, N/32 and N/64 on 8k hybrid.
func boxesPay(dirty, objects int) bool { return 32*dirty <= objects }

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
		r.track = r.session.trackFor(r)
		r.everyRow = r.track.index != nil && !boxesPay(len(r.dirtyIdx), len(r.sats))
		r.stats.TrackBytes = r.track.bytes()
		r.dirtyKeys = make([]uint64, boxSteps*len(r.dirtyIdx))
	}
	return nil
}

// listUnread starts the pass's build list: the dirty objects, then every
// other object whose row is not valid — every object, without a track — and
// readies what solving and sweeping them reads: their warm-start states and
// gate rows. The pass writes no other object's.
func (r *run) listUnread() {
	r.listed = append(r.listed[:0], r.dirtyIdx...)
	for i := range r.sats {
		if !r.track.valid(i) && !bitsetHas(r.dirty, r.sats[i].ID) {
			r.listed = append(r.listed, int32(i))
		}
	}
	r.unread = len(r.listed)
	for _, i := range r.listed {
		r.seed(int(i))
		r.gateRow(i)
	}
}

// gateRow writes object i's row of an incremental pass's gate, its ID — at
// g = +Inf the gate keeps every pair whatever else a row holds — unless the
// row has it: every row the scan of the last step may read does, so none is
// written under it.
func (r *run) gateRow(i int32) {
	if id := r.sats[i].ID; r.gate.rows[i].ID != id {
		r.gate.rows[i] = lockfree.GateRow{ID: id}
	}
}

// listWindow opens the window at the build step: it solves the dirty objects
// over its steps, in order, and lists the valid rows whose boxes meet a dirty
// object's grown by one cell (hits) — an object Chebyshev-adjacent to a dirty
// one at a step of the window has a cell in both (DESIGN.md §11) — or, when
// boxes do not pay, every valid row.
func (r *run) listWindow() error {
	if err := r.buildFork.do(r.ctx, r.workers, len(r.dirtyIdx), r.dirtyFn); err != nil || r.track.index == nil {
		return err
	}
	w, t := r.buildStep/boxSteps, r.track
	r.listed = r.listed[:r.unread]
	if r.everyRow { // in row order, each entered from its current ref
		for l, refs := range [2][]lockfree.Cell{t.index[w], t.overlay[w]} {
			for _, h := range refs {
				if t.valid(int(h.Lo)) && (l == 1 || !t.rewritten[h.Lo]) {
					t.cur[h.Lo] = t.refStart(h)
				}
			}
		}
		for i := range r.sats {
			if t.valid(i) {
				r.listed = append(r.listed, int32(i))
				r.gateRow(int32(i))
			}
		}
		return nil
	}
	t.boxes = t.boxes[:0]
	steps := min(boxSteps, r.steps-r.buildStep)
	for d := range r.dirtyIdx {
		box := lockfree.Cell{Key: lockfree.EmptySlot}
		for _, key := range r.dirtyKeys[d*boxSteps : d*boxSteps+steps] {
			if key != lockfree.EmptySlot {
				box = t.grown(box, r.grid.Coord(key))
			}
		}
		if lo, hi := t.refBox(box); box.Key != lockfree.EmptySlot {
			t.boxes = append(t.boxes, [2]spatial.Coord{{X: lo.X - 1, Y: lo.Y - 1, Z: lo.Z - 1}, {X: hi.X + 1, Y: hi.Y + 1, Z: hi.Z + 1}})
		}
	}
	// A row meeting several boxes is one hit, entered from its ref, in row order.
	t.hits = t.meeting(w, t.boxes, t.hits[:0])
	slices.SortFunc(t.hits, func(a, b lockfree.Cell) int { return cmp.Compare(a.Lo, b.Lo) })
	for _, h := range slices.Compact(t.hits) {
		r.listed, t.cur[h.Lo] = append(r.listed, h.Lo), t.refStart(h)
		r.gateRow(h.Lo)
	}
	return nil
}

// buildDelta is a delta pass's build for one step: list the window at its
// first step, write the dirty entries, stamp each one's cell and the 26 around
// it (serially), and key the other listed objects into entries j with the
// full screen's kernel (buildRange), kept only if stamped — so a pair swept
// with a dirty member is one the full screen sweeps (DESIGN.md §11); a false
// positive pairs with nothing.
func (r *run) buildDelta() ([]lockfree.Cell, error) {
	j := r.buildStep % boxSteps
	if j == 0 {
		if err := r.listWindow(); err != nil {
			return nil, err
		}
	}
	clear(r.stamps)
	oob := 0
	for d, i := range r.dirtyIdx {
		key := r.dirtyKeys[d*boxSteps+j]
		r.stepEntries[d] = lockfree.Cell{Key: key, Lo: i}
		if key == lockfree.EmptySlot {
			oob++
			continue
		}
		for _, a := range r.around {
			bitsetSet(r.stamps, r.stampBit(key+a))
		}
	}
	r.oob.Add(uint64(oob))
	r.stats.VisitedObjectSteps += len(r.listed)
	clean := len(r.listed) - len(r.dirtyIdx)
	err := r.buildFork.do(r.ctx, r.workers, clean, r.buildFn)
	return r.stepEntries[:len(r.listed)], err
}

// dirtyRange solves dirty objects [lo, hi) over the window at the build step
// into r.dirtyKeys (EmptySlot off the cube), noted into their rows.
func (r *run) dirtyRange(_, lo, hi int) {
	var oob int
	for d := lo; d < hi; d++ {
		for s := r.buildStep; s < min(r.buildStep+boxSteps, r.steps); s++ {
			r.dirtyKeys[d*boxSteps+s-r.buildStep], _ = r.solveKey(int(r.dirtyIdx[d]), d, s, &oob)
		}
	}
}

// stampBit is a cell key's bit in the stamp filter: a Fibonacci hash.
func (r *run) stampBit(key uint64) int32 { return int32(key * 0x9e3779b97f4a7c15 >> r.stampShift) }

// solveKey is object i's cell key at step from positionAt, and its radius,
// noted into its row if the pass keeps a track (its place j in the pass's
// list); EmptySlot, counted in *oob, off the cube.
func (r *run) solveKey(i, j, step int, oob *int) (uint64, float32) {
	key := uint64(lockfree.EmptySlot)
	pos, c, ok := r.positionAt(i, step)
	if ok {
		key = r.grid.Key(c)
	} else {
		*oob++
	}
	if r.track != nil {
		r.track.note(i, j, uint32(step), key)
	}
	return key, float32(pos.Norm())
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
