// Package pool recycles the screening pipeline's large per-run structures —
// entry and sort buffers, radix histograms, gate tables, Kepler warm-start
// caches, knot tables, candidate key buffers, bitsets and ID-index maps —
// across runs and concurrent HTTP requests.
//
// The paper's pipeline allocates everything up front (step 1 of §III) and
// then mutates in place; what it never does is hold allocations across
// *runs*. For a long-running service screening window after window that
// re-allocation is pure GC pressure: the structures of one window are
// exactly the structures the next window needs. Pool closes that loop with
// capacity-aware freelists — a Get returns a previously released structure
// whose capacity fits the request (best-fit, within a bounded oversize
// window so a million-object table is never wasted on a thousand-object
// run), or allocates fresh when nothing fits.
//
// # Ownership and lifetime invariants
//
//   - A Get transfers exclusive ownership to the caller; a Put transfers it
//     back. Using a structure after Put, or putting it twice, is a data
//     race — exactly like free().
//   - ID-index maps are cleared on Put.
//   - Motion tables and bitsets are zeroed on Get: no row's stamp names a
//     step, no bit is set.
//   - Pair-key buffers, cell buffers, int32 buffers, radial-gate tables,
//     Kepler warm-start caches and knot tables are returned with stale
//     contents: key, cell and int32 buffers are handed out with length 0 (a
//     step's build overwrites every entry the scan reads, a sort clears the
//     histograms it counts into), and the detectors write every entry of the
//     tables and caches they read before reading it — all of them on a full
//     screen, those of what it solves or lists on a delta pass (DESIGN.md
//     §§10–11).
//
// All methods are safe for concurrent use; the freelists are small
// mutex-protected stacks (Get/Put are rare — per run, not per step — so
// lock-freedom buys nothing here).
package pool

import (
	"sync"
	"sync/atomic"

	"repro/internal/lockfree"
	"repro/internal/propagation"
)

// Per-kind idle caps. A run holds at most four cell buffers (an entry ring of
// two, the sort buffer and a listing's boxes) and three int32 buffers. The caps leave room for a few runs at once —
// concurrent server requests, or a screen beside a delta pass — to hand
// theirs back; maps retain their buckets forever, so only a few are kept.
const (
	maxIdleBuffers = 16
	maxIdleIndexes = 8
	maxIdleKeyBufs = 128 // runs hold one per worker and one for the collected list
	maxIdleBitsets = 8   // delta passes hold three (dirty, touched, stamps) per run
)

// oversizeFactor bounds how much larger than requested a reused structure
// may be: clearing (and scanning) a structure costs O(capacity), so handing
// a 1M-word bitset to a 1k-word request would make every step pay for
// capacity the run cannot use.
const oversizeFactor = 8

// Pool is a set of capacity-aware freelists. The zero value is not ready;
// use New, Default, or Disabled.
type Pool struct {
	disabled bool

	mu       sync.Mutex
	indexes  []map[int32]int32
	keyBufs  [][]uint64
	cellBufs [][]lockfree.Cell
	int32s   [][]int32
	gateRows [][]lockfree.GateRow
	motion   [][]lockfree.MotionRow
	kcaches  [][]propagation.KeplerCache
	knots    [][]propagation.Knots
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
	p.indexes = nil
	p.keyBufs = nil
	p.cellBufs = nil
	p.int32s = nil
	p.gateRows = nil
	p.motion = nil
	p.kcaches = nil
	p.knots = nil
	p.bitsets = nil
	p.mu.Unlock()
}

// take counts a get and removes from *list the smallest idle element that
// fit accepts (fit returns the element's size and whether it can serve the
// request). ok is false — the caller allocates — when nothing fits or the
// pool is disabled.
func take[E any](p *Pool, list *[]E, fit func(E) (size int, ok bool)) (e E, ok bool) {
	p.gets.Add(1)
	if p.disabled {
		return e, false
	}
	p.mu.Lock()
	idle := *list
	best, bestSize := -1, 0
	for i, c := range idle {
		if size, ok := fit(c); ok && (best < 0 || size < bestSize) {
			best, bestSize = i, size
		}
	}
	if best >= 0 {
		var zero E
		last := len(idle) - 1
		e = idle[best]
		idle[best], idle[last] = idle[last], zero
		*list = idle[:last]
	}
	p.mu.Unlock()
	if best < 0 {
		return e, false
	}
	p.hits.Add(1)
	return e, true
}

// put counts a put and keeps e in *list unless it already holds maxIdle.
func put[E any](p *Pool, list *[]E, e E, maxIdle int) {
	p.puts.Add(1)
	if p.disabled {
		return
	}
	p.mu.Lock()
	if len(*list) < maxIdle {
		*list = append(*list, e)
	}
	p.mu.Unlock()
}

// getBuf serves every slice kind: the smallest idle buffer of *list with
// capacity at least capHint, emptied, or a fresh one. The append-grown kinds
// (key and cell buffers) have no oversize window — their cost is their
// memory, not their capacity; the windowed kinds are sized by the population
// and must not pin a large run's buffer under a small one.
func getBuf[T any](p *Pool, list *[][]T, capHint int, windowed bool) []T {
	b, ok := take(p, list, func(b []T) (int, bool) {
		return cap(b), cap(b) >= capHint && (!windowed || cap(b) <= oversizeFactor*(capHint+1))
	})
	if !ok {
		return make([]T, 0, capHint)
	}
	return b[:0]
}

// putBuf returns b to *list, which keeps at most maxIdle. nil is ignored.
func putBuf[T any](p *Pool, list *[][]T, b []T, maxIdle int) {
	if b != nil {
		put(p, list, b, maxIdle)
	}
}

// GetKeyBuf returns a zero-length packed pair-key buffer with capacity at
// least capHint — a run's per-worker candidate buffers, which grow by append
// inside the workers, and the one list they are collected into. A warm pool
// converges on the population's natural candidate volume and stops allocating.
func (p *Pool) GetKeyBuf(capHint int) []uint64 { return getBuf(p, &p.keyBufs, capHint, false) }

// PutKeyBuf returns a pair-key buffer to the pool. nil is ignored.
func (p *Pool) PutKeyBuf(b []uint64) { putBuf(p, &p.keyBufs, b, maxIdleKeyBufs) }

// GetCellBuf returns a zero-length cell buffer with capacity at least capHint
// — a full screen's build writes each step's entries into one, its scan sorts
// them through one more, and a knot-interval listing keys its boxes in one.
func (p *Pool) GetCellBuf(capHint int) []lockfree.Cell {
	return getBuf(p, &p.cellBufs, capHint, false)
}

// PutCellBuf returns a cell buffer to the pool. nil is ignored.
func (p *Pool) PutCellBuf(b []lockfree.Cell) { putBuf(p, &p.cellBufs, b, maxIdleBuffers) }

// GetInt32Buf returns a zero-length int32 buffer with capacity at least
// capHint — a run's radix histograms and a listing's list of objects.
func (p *Pool) GetInt32Buf(capHint int) []int32 { return getBuf(p, &p.int32s, capHint, true) }

// PutInt32Buf returns an int32 buffer to the pool. nil is ignored.
func (p *Pool) PutInt32Buf(b []int32) { putBuf(p, &p.int32s, b, maxIdleBuffers) }

// GetGateRows returns a radial-gate table of length n with stale contents.
func (p *Pool) GetGateRows(n int) []lockfree.GateRow { return getBuf(p, &p.gateRows, n, true)[:n] }

// PutGateRows returns a radial-gate table to the pool. nil is ignored.
func (p *Pool) PutGateRows(b []lockfree.GateRow) { putBuf(p, &p.gateRows, b, maxIdleBuffers) }

// GetMotionRows returns a zeroed motion-test table of length n.
func (p *Pool) GetMotionRows(n int) []lockfree.MotionRow {
	b := getBuf(p, &p.motion, n, true)[:n]
	clear(b)
	return b
}

// PutMotionRows returns a motion-test table to the pool. nil is ignored.
func (p *Pool) PutMotionRows(b []lockfree.MotionRow) { putBuf(p, &p.motion, b, maxIdleBuffers) }

// GetKeplerCache returns a warm-start cache of length n with stale contents;
// the detectors seed every entry they solve before its first solve.
func (p *Pool) GetKeplerCache(n int) []propagation.KeplerCache {
	return getBuf(p, &p.kcaches, n, true)[:n]
}

// PutKeplerCache returns a warm-start cache to the pool. nil is ignored.
func (p *Pool) PutKeplerCache(c []propagation.KeplerCache) { putBuf(p, &p.kcaches, c, maxIdleBuffers) }

// GetKnots returns a knot table of length n with stale contents; the build
// kernel solves every row's first interval at step 0.
func (p *Pool) GetKnots(n int) []propagation.Knots { return getBuf(p, &p.knots, n, true)[:n] }

// PutKnots returns a knot table to the pool. nil is ignored.
func (p *Pool) PutKnots(k []propagation.Knots) { putBuf(p, &p.knots, k, maxIdleBuffers) }

// GetBitset returns a zeroed bitset of exactly `words` uint64 words — the
// dirty/touched ID sets and the stamp filter of a delta pass. The zeroing
// pass is what makes reuse correct, so Get pays O(words); words is maxID/64,
// or about 27 per dirty object, small next to the structures the pass holds.
func (p *Pool) GetBitset(words int) []uint64 {
	b := getBuf(p, &p.bitsets, words, true)[:words]
	clear(b)
	return b
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
