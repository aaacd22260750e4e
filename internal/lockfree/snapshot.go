package lockfree

import (
	"sync"
	"sync/atomic"
)

// This file has no production caller. A full screen used to insert every
// object into a GridSet and Freeze it once per step; it now writes one
// {Key, Lo: ID} Cell per object into a plain buffer and sorts and groups that
// (internal/core: buildRange, sortCells, groupCells). GridSnapshot stays, its
// code unchanged, as the subject of the bench probe lockfree.freeze_ns_per_entry
// (bench/probes.go) and as the reference the grouping test and the hash-grid
// build benchmark in internal/core compare the sort against.

// Cell is one occupied grid cell: its packed key and the [Lo, Hi) range of
// its satellites inside an ID array. Before grouping, a full screen's entry
// buffer holds one Cell per object: population index in Lo, radius bits in Hi.
type Cell struct {
	Key    uint64
	Lo, Hi int32
}

// GateRow is one object's row of a full screen's radial-gate table
// (internal/core): the ID its keys carry, a bound on its radial speed (km/s),
// how far from a step its refinement windows reach (s) and a bound on its
// acceleration (km/s²).
type GateRow struct {
	ID               int32
	RDot, Reach, Acc float32
}

// MotionRow is one object's row of a full screen's motion-test table
// (internal/core): its position (km) and velocity (km/s) at the step Stamp
// names, rounded to float32.
type MotionRow struct {
	Pos, Vel [3]float32
	Stamp    atomic.Uint32
}

// GridSnapshot is the frozen, scan-friendly form of a GridSet: a compact list
// of the occupied cells and one contiguous array of satellite IDs, each cell
// a range of it — the Fig. 6 per-cell linked lists with the links and the
// empty slots taken out.
//
// The linked lists are what make lock-free *insertion* cheap; they are also
// what makes *scanning* slow, because a neighbour scan chases atomic
// next-links through a cache-hostile arena. Freezing after the insertion
// phase turns every cell into a contiguous int32 slice, so the scan reads
// straight lines of memory with no atomics at all. Cells appear in slot
// order, which is hash order; a reader that wants them in key order sorts a
// copy, the snapshot itself is never written after Freeze returns.
//
// Lifecycle per sampling step: build (GridSet.Insert, concurrent) → freeze
// (Freeze, requires insertion quiescence) → scan (read-only, any
// concurrency). A snapshot is reusable: Freeze re-sizes its buffers in
// place, so pooled snapshots serve step after step without allocation.
type GridSnapshot struct {
	cells []Cell
	ids   []int32
	// counts backs the parallel freeze (cells and entries of each worker's
	// slot range); kept on the snapshot so repeated freezes allocate nothing.
	counts [][2]int32
}

// NewGridSnapshot returns a snapshot with capacity for a grid of the given
// slot and entry counts. Freeze grows the buffers on demand, so the hints
// only pre-empt reallocation.
func NewGridSnapshot(slotCap, entryCap int) *GridSnapshot {
	sn := &GridSnapshot{}
	sn.ensure(max(min(slotCap, entryCap), 0), max(entryCap, 0))
	return sn
}

// ensure gives the buffers room for the given cell and entry counts and
// empties them.
func (sn *GridSnapshot) ensure(cells, entries int) {
	if cap(sn.cells) < cells {
		sn.cells = make([]Cell, 0, cells)
	}
	if cap(sn.ids) < entries {
		sn.ids = make([]int32, 0, entries)
	}
	sn.cells, sn.ids = sn.cells[:0], sn.ids[:0]
}

// Cells returns the occupied cells of the last freeze, in slot order. The
// slice aliases the snapshot: read-only, and valid until the next Freeze.
func (sn *GridSnapshot) Cells() []Cell { return sn.cells }

// IDs returns the satellite-ID array the cells' ranges index; cell c holds
// IDs()[c.Lo:c.Hi]. Read-only, valid until the next Freeze.
func (sn *GridSnapshot) IDs() []int32 { return sn.ids }

// Entries returns the number of entries captured by the last freeze.
func (sn *GridSnapshot) Entries() int { return len(sn.ids) }

// EntryCapacity returns the entry capacity (for pool fit checks).
func (sn *GridSnapshot) EntryCapacity() int { return cap(sn.ids) }

// freezeParallelThreshold: below this slot count the sequential pass wins
// over goroutine fan-out.
const freezeParallelThreshold = 1 << 14

// Freeze compacts g into the snapshot using up to workers goroutines. One
// worker appends every occupied slot's cell and IDs in a single pass. Several
// workers first count the cells and entries of their slot ranges, a
// workers-element prefix turns the counts into each range's offsets, and the
// same append then runs per range into its own part of the buffers.
//
// g must be insertion-quiescent (the same precondition as Reset). Within a
// cell, entries appear in list order — the reverse of Treiber-push order —
// which is nondeterministic under concurrent insertion; scans must not
// depend on intra-cell order (the pair set dedups, so candidate generation
// does not).
func (sn *GridSnapshot) Freeze(g *GridSet, workers int) {
	slots := len(g.keys)
	// No cell is empty and every entry is one arena slot, so the arena
	// bounds both counts — whatever this step's occupancy, no regrowth.
	sn.ensure(len(g.entries), len(g.entries))
	workers = min(workers, slots)
	if workers <= 1 || slots < freezeParallelThreshold {
		sn.cells, sn.ids = appendCells(g, 0, slots, sn.cells, sn.ids)
		return
	}

	chunk := (slots + workers - 1) / workers
	if cap(sn.counts) < workers {
		sn.counts = make([][2]int32, workers)
	}
	counts := sn.counts[:workers]
	var wg sync.WaitGroup
	forEachChunk := func(fn func(w, lo, hi int)) {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				fn(w, min(w*chunk, slots), min((w+1)*chunk, slots))
			}(w)
		}
		wg.Wait()
	}

	// Disjoint slot ranges, plain writes; the caller's quiescence guarantee
	// orders them against inserts.
	forEachChunk(func(w, lo, hi int) { counts[w] = countCells(g, lo, hi) })
	var total [2]int32
	for w, c := range counts {
		counts[w] = total
		total[0] += c[0]
		total[1] += c[1]
	}
	// Each range appends at its offsets; the counts are exact, so no append
	// grows the shared arrays and no two ranges overlap.
	forEachChunk(func(w, lo, hi int) {
		appendCells(g, lo, hi, sn.cells[:counts[w][0]], sn.ids[:counts[w][1]])
	})
	sn.cells, sn.ids = sn.cells[:total[0]], sn.ids[:total[1]]
}

// countCells returns the number of occupied slots in [lo, hi) and the total
// length of their lists.
func countCells(g *GridSet, lo, hi int) (n [2]int32) {
	for s := lo; s < hi; s++ {
		if g.keys[s].Load() == EmptySlot {
			continue
		}
		n[0]++
		for e := g.heads[s].Load(); e >= 0; e = g.entries[e].next.Load() {
			n[1]++
		}
	}
	return n
}

// appendCells appends the cell and the IDs of every occupied slot in
// [lo, hi); a cell's range starts at the length ids had when it was reached.
func appendCells(g *GridSet, lo, hi int, cells []Cell, ids []int32) ([]Cell, []int32) {
	for s := lo; s < hi; s++ {
		key := g.keys[s].Load()
		if key == EmptySlot {
			continue
		}
		at := int32(len(ids))
		for e := g.heads[s].Load(); e >= 0; e = g.entries[e].next.Load() {
			ids = append(ids, g.entries[e].ID)
		}
		cells = append(cells, Cell{Key: key, Lo: at, Hi: int32(len(ids))})
	}
	return cells, ids
}
