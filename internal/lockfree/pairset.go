package lockfree

import (
	"fmt"
	"sync/atomic"

	"repro/internal/hash"
)

// Candidate key layout: the two satellite identifiers (the smaller in the
// high field so (a,b) and (b,a) coincide) and the sampling step, packed into
// one machine word — ascending key order is (A, B, Step) order, and set
// membership needs a single CAS. 20 bits per identifier supports the paper's
// 1,024,000-object populations; 24 step bits allow 16.7M sampling steps.
const (
	idBits   = 20
	stepBits = 64 - 2*idBits // 24
	// MaxID is the largest satellite identifier a key can hold.
	MaxID = 1<<idBits - 1
	// MaxStep is the largest sampling-step index a key can hold; two keys of
	// one pair differ by at most this.
	MaxStep = 1<<stepBits - 1
)

// Pair is one candidate conjunction: two distinct satellites that shared a
// grid neighbourhood at a sampling step.
type Pair struct {
	A, B int32 // satellite IDs with A < B
	Step uint32
}

// PackPair packs a pair into its key. IDs are ordered internally, so
// PackPair(a, b, s) == PackPair(b, a, s).
func PackPair(a, b int32, step uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<(idBits+stepBits) | uint64(uint32(b))<<stepBits | uint64(step)
}

// UnpackPair is the inverse of PackPair.
func UnpackPair(key uint64) Pair {
	return Pair{
		A:    int32(key >> (idBits + stepBits) & MaxID),
		B:    int32(key >> stepBits & MaxID),
		Step: uint32(key & MaxStep),
	}
}

// PairSet is the non-blocking conjunction hash set of §IV-A3: all workers of
// the detection phase insert the candidate pairs they discover; duplicate
// discoveries (a pair seen from both satellites' cells, or via two
// neighbouring cells) coalesce for free because insertion is idempotent
// within one sampling step, "which helps to prevent considering possible
// conjunctions twice […] however, it allows multiple conjunctions at
// different sampling steps".
//
// The screening pipeline does not use it: its sweeps emit each (pair, step)
// once, so the candidates are a sorted key list (core's collectPairs; DESIGN.md
// §2 has the substitution row). The set stays as the paper's structure, under
// its concurrency tests, and as the subject of bench's lockfree.pair_insert_ns.
type PairSet struct {
	slots []atomic.Uint64
	mask  uint64
	count atomic.Int64
	// loadLimit fails insertions once count reaches it: linear probing
	// degrades to O(slots) walks near 100% occupancy, so the set reports
	// ErrFull at 90%.
	loadLimit int64
}

// NewPairSet returns a pair set with at least slotHint slots (rounded up to
// a power of two).
func NewPairSet(slotHint int) *PairSet {
	if slotHint < 2 {
		slotHint = 2
	}
	n := 1
	for n < slotHint {
		n <<= 1
	}
	p := &PairSet{
		slots: make([]atomic.Uint64, n),
		mask:  uint64(n - 1),
	}
	p.loadLimit = int64(n) * 9 / 10
	if p.loadLimit < 1 {
		p.loadLimit = 1
	}
	p.Reset()
	return p
}

// Len returns the number of distinct pairs stored.
func (p *PairSet) Len() int { return int(p.count.Load()) }

// Reset empties the set.
func (p *PairSet) Reset() {
	for i := range p.slots {
		p.slots[i].Store(EmptySlot)
	}
	p.count.Store(0)
}

// Insert adds the (a, b, step) candidate. It reports whether the pair was
// newly added (false: already present) and returns ErrFull when no slot is
// free.
//
// a and b must be distinct and within [0, MaxID]; step ≤ MaxStep. Distinct
// IDs guarantee the packed key can never equal the EmptySlot sentinel.
func (p *PairSet) Insert(a, b int32, step uint32) (added bool, err error) {
	if a == b {
		return false, fmt.Errorf("lockfree: pair of satellite %d with itself", a)
	}
	if a < 0 || b < 0 || a > MaxID || b > MaxID {
		return false, fmt.Errorf("lockfree: satellite id out of range: %d, %d (max %d)", a, b, MaxID)
	}
	if step > MaxStep {
		return false, fmt.Errorf("lockfree: step %d exceeds maximum %d", step, MaxStep)
	}
	return p.InsertPacked(PackPair(a, b, step))
}

// InsertPacked is Insert for a key already built with PackPair, skipping the
// argument validation. The key must originate from PackPair with distinct,
// in-range IDs (such a key can never equal the EmptySlot sentinel).
// Re-inserting keys already present is harmless.
func (p *PairSet) InsertPacked(key uint64) (added bool, err error) {
	if p.count.Load() >= p.loadLimit {
		// Fail fast before probe chains blow up near full occupancy. A
		// duplicate of an existing key is reported as full too, which keeps
		// the invariant simple and the path race-free.
		return false, ErrFull
	}
	slot := hash.Mix64(key) & p.mask
	for probed := uint64(0); probed <= p.mask; probed++ {
		k := p.slots[slot].Load()
		if k == EmptySlot {
			if p.slots[slot].CompareAndSwap(EmptySlot, key) {
				p.count.Add(1)
				return true, nil
			}
			k = p.slots[slot].Load()
		}
		if k == key {
			return false, nil
		}
		slot = (slot + 1) & p.mask
	}
	return false, ErrFull
}

// Contains reports whether the (a, b, step) candidate is present.
func (p *PairSet) Contains(a, b int32, step uint32) bool {
	key := PackPair(a, b, step)
	slot := hash.Mix64(key) & p.mask
	for probed := uint64(0); probed <= p.mask; probed++ {
		k := p.slots[slot].Load()
		if k == EmptySlot {
			return false
		}
		if k == key {
			return true
		}
		slot = (slot + 1) & p.mask
	}
	return false
}

// Items appends every stored pair to dst and returns it. Order is the slot
// order (deterministic for a quiesced set).
func (p *PairSet) Items(dst []Pair) []Pair {
	for i := range p.slots {
		if k := p.slots[i].Load(); k != EmptySlot {
			dst = append(dst, UnpackPair(k))
		}
	}
	return dst
}
