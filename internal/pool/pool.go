// Package pool recycles the screening pipeline's large per-run structures —
// stamp tables, conjunction pair sets, entry and sort buffers, propagation
// state buffers, candidate-pair buffers and ID-index maps — across sampling
// steps, runs and concurrent HTTP requests.
//
// The paper's pipeline allocates everything up front (step 1 of §III) and
// then mutates in place; what it never does is hold allocations across
// *runs*. For a long-running service screening window after window that
// re-allocation is pure GC pressure: the structures of one window are
// exactly the structures the next window needs. Pool closes that loop with
// capacity-aware freelists — a Get returns a previously released structure
// whose capacity fits the request (best-fit, within a bounded oversize
// window so a million-slot set is never wasted on a thousand-object run),
// or allocates fresh when nothing fits.
//
// # Ownership and lifetime invariants
//
//   - A Get transfers exclusive ownership to the caller; a Put transfers it
//     back. Using a structure after Put, or putting it twice, is a data
//     race — exactly like free().
//   - GridSets are returned from Get in an unspecified fill state; callers
//     must Reset before relying on emptiness. (A delta pass resets its stamp
//     table at the start of every sampling step anyway, so this costs nothing.)
//   - PairSets are returned from Get empty: Get resets them, because the
//     detectors accumulate candidates across all steps of a run and never
//     reset mid-run.
//   - State and Pair buffers are returned with stale contents; State
//     buffers are fully overwritten by the propagation phase before any
//     read, Pair and Satellite buffers are handed out with length 0.
//   - ID-index maps are cleared on Put.
//   - Pair-key buffers, cell buffers and Kepler warm-start caches are
//     returned with stale contents: key and cell buffers are handed out with
//     length 0 (a step's build overwrites every entry the scan reads), and the
//     detectors reinitialise the caches before the first step (DESIGN.md §10).
//
// All methods are safe for concurrent use; the freelists are small
// mutex-protected stacks (Get/Put are rare — per run, not per step — so
// lock-freedom buys nothing here; the lock-free structures themselves live
// in package lockfree).
package pool

import (
	"sync"
	"sync/atomic"

	"repro/internal/lockfree"
	"repro/internal/propagation"
)

// Per-kind idle caps. A delta pass holds one grid set, its stamp table; a full
// screen holds none, and at most three cell buffers (an entry ring of two and
// the sort pair). A sharded screen by default runs at most four shards at once,
// so the freelists keep what four runs can hand back; maps retain their buckets
// forever, so only a few are kept.
const (
	maxIdleGridSets = 4
	maxIdlePairSets = 16
	maxIdleBuffers  = 16
	maxIdleIndexes  = 8
	maxIdleKeyBufs  = 128 // runs hold one per worker
	maxIdleBitsets  = 8   // delta screens hold two (dirty + touched) per run
)

// oversizeFactor bounds how much larger than requested a reused structure
// may be: resetting (and scanning) a structure costs O(capacity), so
// handing a 1M-slot set to a 1k-slot request would make every step pay for
// capacity the run cannot use.
const oversizeFactor = 8

// Pool is a set of capacity-aware freelists. The zero value is not ready;
// use New, Default, or Disabled.
type Pool struct {
	disabled bool

	mu       sync.Mutex
	gridSets []*lockfree.GridSet
	pairSets []*lockfree.PairSet
	states   [][]propagation.State
	pairBufs [][]lockfree.Pair
	satBufs  [][]propagation.Satellite
	indexes  []map[int32]int32
	keyBufs  [][]uint64
	cellBufs [][]lockfree.Cell
	kcaches  [][]propagation.KeplerCache
	bitsets  [][]uint64

	gets atomic.Int64
	puts atomic.Int64
	hits atomic.Int64
}

// Default is the process-wide shared pool: every screening run that does
// not supply its own pool draws from (and releases to) this one, which is
// what lets concurrent HTTP requests share warm buffers.
var Default = New()

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// Disabled returns a pool whose Get always allocates fresh and whose Put
// discards — the pre-pooling behaviour, kept for baseline benchmarks and
// for callers that must not retain memory between runs. Get/Put counters
// still work, so leak (balance) checks remain valid.
func Disabled() *Pool { return &Pool{disabled: true} }

// Stats is a snapshot of the pool counters.
type Stats struct {
	Gets int64 // structures handed out
	Puts int64 // structures returned
	Hits int64 // gets served from a freelist instead of allocating
}

// Outstanding returns the number of structures currently held by callers.
// A quiesced pipeline must always return to Outstanding() == 0; the
// regression tests assert it on every exit path, including errors.
func (s Stats) Outstanding() int64 { return s.Gets - s.Puts }

// Stats returns the counter snapshot.
func (p *Pool) Stats() Stats {
	return Stats{Gets: p.gets.Load(), Puts: p.puts.Load(), Hits: p.hits.Load()}
}

// Drain discards every idle structure, releasing the retained memory to the
// GC. Outstanding structures are unaffected.
func (p *Pool) Drain() {
	p.mu.Lock()
	p.gridSets = nil
	p.pairSets = nil
	p.states = nil
	p.pairBufs = nil
	p.satBufs = nil
	p.indexes = nil
	p.keyBufs = nil
	p.cellBufs = nil
	p.kcaches = nil
	p.bitsets = nil
	p.mu.Unlock()
}

// nextPow2 mirrors the rounding of lockfree.NewGridSet / NewPairSet so fit
// checks compare like with like.
func nextPow2(n int) int {
	if n < 2 {
		n = 2
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// GetGridSet returns a grid set with at least slotHint slots (rounded up to
// a power of two) and room for maxEntries entries — a delta pass's stamp
// table, the one grid set the pipeline draws. The set's fill state is
// unspecified; Reset before relying on emptiness. The oversize window applies
// to the entry arena as well as the slots: a small delta's table (a few
// hundred entries, reset every step) must not be served by an idle one whose
// slot count happens to sit inside the window but whose arena does not.
func (p *Pool) GetGridSet(slotHint, maxEntries int) *lockfree.GridSet {
	p.gets.Add(1)
	if !p.disabled {
		want := nextPow2(slotHint)
		p.mu.Lock()
		best := -1
		for i, g := range p.gridSets {
			if g.Slots() < want || g.EntryCapacity() < maxEntries ||
				g.Slots() > oversizeFactor*want || g.EntryCapacity() > oversizeFactor*(maxEntries+1) {
				continue
			}
			if best < 0 || g.Slots() < p.gridSets[best].Slots() {
				best = i
			}
		}
		if best >= 0 {
			g := p.takeGridSet(best)
			p.mu.Unlock()
			p.hits.Add(1)
			return g
		}
		p.mu.Unlock()
	}
	return lockfree.NewGridSet(slotHint, maxEntries)
}

func (p *Pool) takeGridSet(i int) *lockfree.GridSet {
	g := p.gridSets[i]
	last := len(p.gridSets) - 1
	p.gridSets[i] = p.gridSets[last]
	p.gridSets[last] = nil
	p.gridSets = p.gridSets[:last]
	return g
}

// PutGridSet returns a grid set to the pool. nil is ignored.
func (p *Pool) PutGridSet(g *lockfree.GridSet) {
	if g == nil {
		return
	}
	p.puts.Add(1)
	if p.disabled {
		return
	}
	p.mu.Lock()
	if len(p.gridSets) < maxIdleGridSets {
		p.gridSets = append(p.gridSets, g)
	}
	p.mu.Unlock()
}

// GetPairSet returns an empty pair set with at least slotHint slots
// (rounded up to a power of two).
func (p *Pool) GetPairSet(slotHint int) *lockfree.PairSet {
	p.gets.Add(1)
	if !p.disabled {
		want := nextPow2(slotHint)
		p.mu.Lock()
		best := -1
		for i, ps := range p.pairSets {
			if ps.Slots() < want || ps.Slots() > oversizeFactor*want {
				continue
			}
			if best < 0 || ps.Slots() < p.pairSets[best].Slots() {
				best = i
			}
		}
		if best >= 0 {
			ps := p.pairSets[best]
			last := len(p.pairSets) - 1
			p.pairSets[best] = p.pairSets[last]
			p.pairSets[last] = nil
			p.pairSets = p.pairSets[:last]
			p.mu.Unlock()
			p.hits.Add(1)
			ps.Reset()
			return ps
		}
		p.mu.Unlock()
	}
	return lockfree.NewPairSet(slotHint)
}

// PutPairSet returns a pair set to the pool. nil is ignored.
func (p *Pool) PutPairSet(ps *lockfree.PairSet) {
	if ps == nil {
		return
	}
	p.puts.Add(1)
	if p.disabled {
		return
	}
	p.mu.Lock()
	if len(p.pairSets) < maxIdlePairSets {
		p.pairSets = append(p.pairSets, ps)
	}
	p.mu.Unlock()
}

// GetStates returns a state buffer of length n with stale contents; the
// propagation phase overwrites every element before anything reads it.
func (p *Pool) GetStates(n int) []propagation.State {
	p.gets.Add(1)
	if !p.disabled {
		p.mu.Lock()
		best := -1
		for i, s := range p.states {
			if cap(s) < n || cap(s) > oversizeFactor*(n+1) {
				continue
			}
			if best < 0 || cap(s) < cap(p.states[best]) {
				best = i
			}
		}
		if best >= 0 {
			s := p.states[best]
			last := len(p.states) - 1
			p.states[best] = p.states[last]
			p.states[last] = nil
			p.states = p.states[:last]
			p.mu.Unlock()
			p.hits.Add(1)
			return s[:n]
		}
		p.mu.Unlock()
	}
	return make([]propagation.State, n)
}

// PutStates returns a state buffer to the pool. nil is ignored.
func (p *Pool) PutStates(s []propagation.State) { putBuf(p, &p.states, s, maxIdleBuffers) }

// getBuf serves the append-grown buffer kinds: the smallest idle buffer of
// *list with capacity at least capHint, emptied, or a fresh one. They have no
// oversize window — a buffer's cost is its memory, not its capacity.
func getBuf[T any](p *Pool, list *[][]T, capHint int) []T {
	p.gets.Add(1)
	if !p.disabled {
		p.mu.Lock()
		idle := *list
		best := -1
		for i, b := range idle {
			if cap(b) >= capHint && (best < 0 || cap(b) < cap(idle[best])) {
				best = i
			}
		}
		if best >= 0 {
			b := idle[best]
			last := len(idle) - 1
			idle[best], idle[last] = idle[last], nil
			*list = idle[:last]
			p.mu.Unlock()
			p.hits.Add(1)
			return b[:0]
		}
		p.mu.Unlock()
	}
	return make([]T, 0, capHint)
}

// putBuf returns b to *list, which keeps at most maxIdle. nil is ignored.
func putBuf[T any](p *Pool, list *[][]T, b []T, maxIdle int) {
	if b == nil {
		return
	}
	p.puts.Add(1)
	if p.disabled {
		return
	}
	p.mu.Lock()
	if len(*list) < maxIdle {
		*list = append(*list, b)
	}
	p.mu.Unlock()
}

// GetPairBuf returns a zero-length candidate-pair buffer with capacity at
// least capHint.
func (p *Pool) GetPairBuf(capHint int) []lockfree.Pair { return getBuf(p, &p.pairBufs, capHint) }

// PutPairBuf returns a candidate buffer to the pool. nil is ignored.
func (p *Pool) PutPairBuf(b []lockfree.Pair) { putBuf(p, &p.pairBufs, b, maxIdleBuffers) }

// GetSatBuf returns a zero-length satellite buffer with capacity at least
// capHint — the per-shard resident populations of a sharded screen. Like
// pair buffers they are handed out empty and grow by append, so a warm pool
// converges on the largest shard's size and streaming shard after shard
// stops allocating.
func (p *Pool) GetSatBuf(capHint int) []propagation.Satellite {
	p.gets.Add(1)
	if !p.disabled {
		p.mu.Lock()
		best := -1
		for i, b := range p.satBufs {
			if cap(b) < capHint || cap(b) > oversizeFactor*(capHint+1) {
				continue
			}
			if best < 0 || cap(b) < cap(p.satBufs[best]) {
				best = i
			}
		}
		if best >= 0 {
			b := p.satBufs[best]
			last := len(p.satBufs) - 1
			p.satBufs[best] = p.satBufs[last]
			p.satBufs[last] = nil
			p.satBufs = p.satBufs[:last]
			p.mu.Unlock()
			p.hits.Add(1)
			return b[:0]
		}
		p.mu.Unlock()
	}
	return make([]propagation.Satellite, 0, capHint)
}

// PutSatBuf returns a satellite buffer to the pool. nil is ignored.
func (p *Pool) PutSatBuf(b []propagation.Satellite) { putBuf(p, &p.satBufs, b, maxIdleBuffers) }

// GetKeyBuf returns a zero-length packed pair-key buffer with capacity at
// least capHint — the per-worker candidate buffers of the scan phase. They
// grow by append inside the workers, so a warm pool converges on the
// population's natural candidate volume and stops allocating.
func (p *Pool) GetKeyBuf(capHint int) []uint64 { return getBuf(p, &p.keyBufs, capHint) }

// PutKeyBuf returns a pair-key buffer to the pool. nil is ignored.
func (p *Pool) PutKeyBuf(b []uint64) { putBuf(p, &p.keyBufs, b, maxIdleKeyBufs) }

// GetCellBuf returns a zero-length cell buffer with capacity at least capHint
// — a full screen's build writes each step's entries into one, and its scan
// sorts them between two more (drawn as one buffer of twice the length).
func (p *Pool) GetCellBuf(capHint int) []lockfree.Cell { return getBuf(p, &p.cellBufs, capHint) }

// PutCellBuf returns a cell buffer to the pool. nil is ignored.
func (p *Pool) PutCellBuf(b []lockfree.Cell) { putBuf(p, &p.cellBufs, b, maxIdleBuffers) }

// GetKeplerCache returns a warm-start cache of length n with stale contents;
// the detectors reinitialise every entry before the first sampling step.
func (p *Pool) GetKeplerCache(n int) []propagation.KeplerCache {
	p.gets.Add(1)
	if !p.disabled {
		p.mu.Lock()
		best := -1
		for i, c := range p.kcaches {
			if cap(c) < n || cap(c) > oversizeFactor*(n+1) {
				continue
			}
			if best < 0 || cap(c) < cap(p.kcaches[best]) {
				best = i
			}
		}
		if best >= 0 {
			c := p.kcaches[best]
			last := len(p.kcaches) - 1
			p.kcaches[best] = p.kcaches[last]
			p.kcaches[last] = nil
			p.kcaches = p.kcaches[:last]
			p.mu.Unlock()
			p.hits.Add(1)
			return c[:n]
		}
		p.mu.Unlock()
	}
	return make([]propagation.KeplerCache, n)
}

// PutKeplerCache returns a warm-start cache to the pool. nil is ignored.
func (p *Pool) PutKeplerCache(c []propagation.KeplerCache) { putBuf(p, &p.kcaches, c, maxIdleBuffers) }

// GetBitset returns a zeroed ID bitset of exactly `words` uint64 words —
// the dirty/touched membership sets of an incremental (delta) screen. The
// zeroing pass is what makes reuse correct, so Get pays O(words); words is
// maxID/64, tiny next to the structures the screen itself holds.
func (p *Pool) GetBitset(words int) []uint64 {
	p.gets.Add(1)
	if !p.disabled {
		p.mu.Lock()
		best := -1
		for i, b := range p.bitsets {
			if cap(b) < words || cap(b) > oversizeFactor*(words+1) {
				continue
			}
			if best < 0 || cap(b) < cap(p.bitsets[best]) {
				best = i
			}
		}
		if best >= 0 {
			b := p.bitsets[best]
			last := len(p.bitsets) - 1
			p.bitsets[best] = p.bitsets[last]
			p.bitsets[last] = nil
			p.bitsets = p.bitsets[:last]
			p.mu.Unlock()
			p.hits.Add(1)
			b = b[:words]
			clear(b)
			return b
		}
		p.mu.Unlock()
	}
	return make([]uint64, words)
}

// PutBitset returns a bitset to the pool. nil is ignored.
func (p *Pool) PutBitset(b []uint64) { putBuf(p, &p.bitsets, b, maxIdleBitsets) }

// GetIDIndex returns an empty satellite-ID → population-index map with
// room for about sizeHint entries.
func (p *Pool) GetIDIndex(sizeHint int) map[int32]int32 {
	p.gets.Add(1)
	if !p.disabled {
		p.mu.Lock()
		if n := len(p.indexes); n > 0 {
			m := p.indexes[n-1]
			p.indexes[n-1] = nil
			p.indexes = p.indexes[:n-1]
			p.mu.Unlock()
			p.hits.Add(1)
			return m
		}
		p.mu.Unlock()
	}
	return make(map[int32]int32, sizeHint)
}

// PutIDIndex clears the map and returns it to the pool. nil is ignored.
func (p *Pool) PutIDIndex(m map[int32]int32) {
	if m == nil {
		return
	}
	p.puts.Add(1)
	if p.disabled {
		return
	}
	clear(m)
	p.mu.Lock()
	if len(p.indexes) < maxIdleIndexes {
		p.indexes = append(p.indexes, m)
	}
	p.mu.Unlock()
}
