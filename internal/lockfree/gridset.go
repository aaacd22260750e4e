// Package lockfree provides the non-blocking atomic hash structures of
// §IV-A: a fixed-size grid hash set whose slots are claimed with
// compare-and-swap and probed linearly (Eq. 2), with one preallocated
// satellite entry per object chained into per-cell singly-linked lists
// (Fig. 6); and a fixed-size conjunction pair set keyed by packed
// (satellite, satellite, sampling step) triples.
//
// Both structures are insert-only between explicit resets. The pipeline uses
// the grid set where insertion is concurrent and sparse — a delta pass's stamp
// table (the dirty objects' cells, stamped in parallel, then probed by every
// object); a full screen groups objects by cell with a sort instead, and every
// run keeps its candidates as a sorted list of the pair set's packed keys
// (internal/core), so the pair set itself is the paper's structure under test,
// not a pipeline stage. All mutation goes through sync/atomic operations, so the
// structures are safe for any number of concurrent inserters without locks —
// the property that lets the paper saturate GPU and CPU hardware. Lookups are
// additionally safe while insertions are still in flight (they observe a
// consistent prefix of each cell's list); only Reset requires external
// quiescence.
package lockfree

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/hash"
	"repro/internal/vec3"
)

// EmptySlot is the reserved key marking an unoccupied slot: "the maximum of
// a 64-bit value as a unique value that indicates an empty slot" (§IV-A1).
// Packed spatial keys always have their top bit clear, so no real key can
// collide with it.
const EmptySlot = ^uint64(0)

// nilEntry terminates a cell's entry list.
const nilEntry int32 = -1

// ErrFull is returned when an insertion cannot find a free slot. The paper's
// remedy is to "double the hash map size again" and retry; the pipeline's one
// table, a delta pass's stamp table, is sized for every stamp it can receive,
// so there ErrFull is a bug and is returned as the pass's error.
var ErrFull = errors.New("lockfree: hash structure full")

// Entry is one satellite's record inside a grid cell — the Fig. 6 layout:
// the satellite's identifier, its Cartesian position at the current sampling
// step, and the index of the next entry in the same cell. Entries are
// preallocated in one contiguous arena ("each satellite produces exactly one
// of these entries, so we can allocate them in advance").
//
// The next-link is atomic: it is written while the entry is being published
// into a cell's list and read by list traversals, and the two may overlap
// when lookups run during the insertion phase. ID and Pos stay plain — they
// are written once by the inserting goroutine before the entry becomes
// reachable (the head CAS in push establishes the happens-before edge), and
// are immutable afterwards.
type Entry struct {
	ID   int32
	next atomic.Int32
	Pos  vec3.V
}

// GridSet is the non-blocking grid hash set. A slot holds the packed cell
// key; a parallel array holds the head of that cell's entry list.
type GridSet struct {
	keys    []atomic.Uint64
	heads   []atomic.Int32
	entries []Entry
	mask    uint64 // len(keys) - 1; capacity is a power of two
}

// NewGridSet returns a grid set with at least slotHint slots (rounded up to
// a power of two; the paper uses 2× the satellite count) and room for
// maxEntries satellite entries.
func NewGridSet(slotHint, maxEntries int) *GridSet {
	if slotHint < 2 {
		slotHint = 2
	}
	if maxEntries < 0 {
		maxEntries = 0
	}
	n := 1
	for n < slotHint {
		n <<= 1
	}
	g := &GridSet{
		keys:    make([]atomic.Uint64, n),
		heads:   make([]atomic.Int32, n),
		entries: make([]Entry, maxEntries),
		mask:    uint64(n - 1),
	}
	g.Reset()
	return g
}

// Slots returns the slot capacity.
func (g *GridSet) Slots() int { return len(g.keys) }

// EntryCapacity returns the size of the preallocated entry arena.
func (g *GridSet) EntryCapacity() int { return len(g.entries) }

// Reset marks every slot empty so the set can be reused for the next
// sampling step without reallocation. Only occupied slots are written: an
// empty slot's head is nil already (push runs after the key is claimed), an
// atomic store is an exchange, and a delta pass's stamp table is at most
// one-eighth full, so a reset runs at the speed of its loads, not of two
// atomic stores per slot.
func (g *GridSet) Reset() {
	for i := range g.keys {
		if g.keys[i].Load() != EmptySlot {
			g.keys[i].Store(EmptySlot)
			g.heads[i].Store(nilEntry)
		}
	}
}

// Insert records the satellite with identifier id at position pos into the
// cell with packed key cellKey, writing its record into entry arena slot
// entryIdx (each inserter owns a distinct index — the detectors use the
// satellite's population index). Safe for concurrent use.
//
// The slot walk implements §IV-A2: CAS the key into an empty slot; if the
// CAS loses, re-inspect — a stored equal key means we found our cell and
// push onto its list, a different key is a hash collision resolved by
// linear probing (Eq. 2).
func (g *GridSet) Insert(cellKey uint64, entryIdx int32, id int32, pos vec3.V) error {
	if cellKey == EmptySlot {
		return fmt.Errorf("lockfree: cell key %#x is the reserved empty sentinel", cellKey)
	}
	if int(entryIdx) >= len(g.entries) || entryIdx < 0 {
		return fmt.Errorf("lockfree: entry index %d outside arena of %d", entryIdx, len(g.entries))
	}
	e := &g.entries[entryIdx]
	e.ID = id
	e.Pos = pos

	slot := hash.Mix64(cellKey) & g.mask
	for probed := uint64(0); probed <= g.mask; probed++ {
		k := g.keys[slot].Load()
		if k == EmptySlot {
			if g.keys[slot].CompareAndSwap(EmptySlot, cellKey) {
				g.push(slot, entryIdx)
				return nil
			}
			// Lost the race; re-inspect the same slot — the winner's key
			// may be ours.
			k = g.keys[slot].Load()
		}
		if k == cellKey {
			g.push(slot, entryIdx)
			return nil
		}
		slot = (slot + 1) & g.mask // Eq. 2: s_{i+1} = s_i + 1 mod M
	}
	return ErrFull
}

// push prepends entry entryIdx to the list at slot (Treiber push; the list
// is never popped, only reset wholesale).
func (g *GridSet) push(slot uint64, entryIdx int32) {
	h := &g.heads[slot]
	for {
		old := h.Load()
		g.entries[entryIdx].next.Store(old)
		if h.CompareAndSwap(old, entryIdx) {
			return
		}
	}
}

// Head returns the index of the first entry of the cell with the given key,
// or -1 when the cell is empty. Intended for the read phase, after all
// insertions completed; calling it concurrently with inserters is safe and
// yields the cell's already-published entries.
func (g *GridSet) Head(cellKey uint64) int32 {
	slot := hash.Mix64(cellKey) & g.mask
	for probed := uint64(0); probed <= g.mask; probed++ {
		k := g.keys[slot].Load()
		if k == EmptySlot {
			return nilEntry
		}
		if k == cellKey {
			return g.heads[slot].Load()
		}
		slot = (slot + 1) & g.mask
	}
	return nilEntry
}

// Entry returns the entry at arena index i. The next-link is exposed via
// Next.
func (g *GridSet) Entry(i int32) *Entry { return &g.entries[i] }

// Next returns the arena index of the entry following i in its cell list,
// or -1 at the end.
func (g *GridSet) Next(i int32) int32 { return g.entries[i].next.Load() }

// SlotKey returns the cell key stored in slot s (EmptySlot if unoccupied)
// and the head entry index of its list. It powers the parallel
// slot-range scan of the conjunction-detection phase (§IV-A3): workers
// partition [0, Slots()) and process occupied slots independently.
func (g *GridSet) SlotKey(s int) (key uint64, head int32) {
	return g.keys[s].Load(), g.heads[s].Load()
}

// Stats reports fill statistics for the current contents.
type Stats struct {
	Slots        int     // slot capacity
	Inserts      uint64  // insertions since the last reset
	Probes       uint64  // total probe steps of those insertions
	AvgProbes    float64 // probes per insertion
	OccupiedSlot int     // number of occupied slots (distinct cells)
}

// Stats walks the table and returns fill statistics. Nothing is counted on
// the insert path — a counter there would be a cache line every inserter
// writes — because the table itself records the numbers: every successful
// insertion left one entry on a cell list, and an insertion into the cell at
// slot s walked from the key's home slot to s, displacement + 1 probes
// (keys never move, and nothing between home and s was empty when any of
// them arrived). Call it after the insertion phase, like the other readers.
func (g *GridSet) Stats() Stats {
	st := Stats{Slots: len(g.keys)}
	for s := range g.keys {
		k := g.keys[s].Load()
		if k == EmptySlot {
			continue
		}
		st.OccupiedSlot++
		probes := ((uint64(s) - hash.Mix64(k)) & g.mask) + 1
		for e := g.heads[s].Load(); e != nilEntry; e = g.entries[e].next.Load() {
			st.Inserts++
			st.Probes += probes
		}
	}
	if st.Inserts > 0 {
		st.AvgProbes = float64(st.Probes) / float64(st.Inserts)
	}
	return st
}
