package lockfree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hash"
)

// Pair-set key layout: the two satellite identifiers (the smaller in the
// high field so (a,b) and (b,a) coincide) and the sampling step, packed into
// one machine word so membership needs a single CAS. 20 bits per identifier
// supports the paper's 1,024,000-object populations; 24 step bits allow
// 16.7M sampling steps.
const (
	idBits   = 20
	stepBits = 64 - 2*idBits // 24
	// MaxID is the largest satellite identifier the pair set can store.
	MaxID = 1<<idBits - 1
	// MaxStep is the largest sampling-step index the pair set can store.
	MaxStep = 1<<stepBits - 1
)

// Pair is one candidate conjunction: two distinct satellites that shared a
// grid neighbourhood at a sampling step.
type Pair struct {
	A, B int32 // satellite IDs with A < B
	Step uint32
}

// PackPair packs a pair into its set key. IDs are ordered internally, so
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
type PairSet struct {
	slots []atomic.Uint64
	mask  uint64
	count atomic.Int64
	// loadLimit fails insertions once count reaches it: linear probing
	// degrades to O(slots) walks near 100% occupancy, so the set reports
	// ErrFull at 90% and lets the caller grow instead.
	loadLimit int64
}

// NewPairSet returns a pair set with at least slotHint slots (rounded up to
// a power of two). The sizing model in internal/model supplies the hint.
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

// Slots returns the slot capacity.
func (p *PairSet) Slots() int { return len(p.slots) }

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
// free, in which case the caller must grow and re-run the step.
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
// argument validation — the detectors' scan phase batches packed keys into
// per-worker buffers and merges them here. The key must originate from
// PackPair with distinct, in-range IDs (such a key can never equal the
// EmptySlot sentinel). Re-inserting keys already present is harmless, which
// is what makes the merge retry after a grow safe without a rescan.
func (p *PairSet) InsertPacked(key uint64) (added bool, err error) {
	if p.count.Load() >= p.loadLimit {
		// Fail fast before probe chains blow up near full occupancy. A
		// duplicate of an existing key is reported as full too — callers
		// grow and retry, which keeps the invariant simple and the path
		// race-free.
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

// InsertAll inserts every pair stored in src into p, straight from src's
// slots — how a full set moves into its larger replacement. src must be
// quiesced; p may have concurrent inserters. The first failed insertion
// stops the copy and is returned.
func (p *PairSet) InsertAll(src *PairSet) error {
	for i := range src.slots {
		if k := src.slots[i].Load(); k != EmptySlot {
			if _, err := p.InsertPacked(k); err != nil {
				return err
			}
		}
	}
	return nil
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

// ItemsParallel collects all pairs using the given worker count, preserving
// slot order. For multi-million-slot sets the scan is memory-bound and
// benefits from parallel sweeping.
func (p *PairSet) ItemsParallel(workers int) []Pair {
	return p.AppendItems(nil, workers)
}

// AppendItems appends every stored pair to dst and returns it, sweeping the
// slots with the given worker count. Unlike ItemsParallel it fills the
// caller's buffer, so handing it a presized dst (cap ≥ Len) makes the
// collection allocation-free — the refine stage's pooled candidate buffers
// depend on this. The set must be quiesced (no concurrent Insert); order is
// slot order, matching Items.
func (p *PairSet) AppendItems(dst []Pair, workers int) []Pair {
	if workers <= 1 || len(p.slots) < 1<<14 {
		return p.Items(dst)
	}
	chunk := (len(p.slots) + workers - 1) / workers
	if workers > len(p.slots) {
		workers = len(p.slots)
	}
	// Pass 1: count occupied slots per chunk so pass 2 can write each
	// chunk's pairs at a fixed offset with no per-worker buffers.
	counts := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(p.slots) {
			hi = len(p.slots)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			n := 0
			for i := lo; i < hi; i++ {
				if p.slots[i].Load() != EmptySlot {
					n++
				}
			}
			counts[w] = n
		}(w, lo, hi)
	}
	wg.Wait()
	base := len(dst)
	total := 0
	for w, c := range counts {
		counts[w] = total // counts becomes the chunk's write offset
		total += c
	}
	if cap(dst) < base+total {
		grown := make([]Pair, base, base+total)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+total]
	// Pass 2: decode each chunk into its offset range. The bound guards a
	// violated quiescence precondition from corrupting a neighbour's range.
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(p.slots) {
			hi = len(p.slots)
		}
		if lo >= hi {
			break
		}
		end := base + total
		if w+1 < workers {
			end = base + counts[w+1]
		}
		wg.Add(1)
		go func(lo, hi, at, end int) {
			defer wg.Done()
			for i := lo; i < hi && at < end; i++ {
				if k := p.slots[i].Load(); k != EmptySlot {
					dst[at] = UnpackPair(k)
					at++
				}
			}
		}(lo, hi, base+counts[w], end)
	}
	wg.Wait()
	return dst
}
