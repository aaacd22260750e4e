// Package pool recycles the screening pipeline's large per-run structures —
// stamp tables, entry and sort buffers, gate tables, propagation state
// buffers, candidate key buffers and ID-index maps — across sampling steps,
// runs and concurrent HTTP requests.
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
//   - State buffers are returned with stale contents and fully overwritten
//     by the propagation phase before any read.
//   - ID-index maps are cleared on Put.
//   - Motion tables are zeroed on Get: no row's stamp names a step.
//   - Pair-key buffers, cell buffers, radial-gate tables and Kepler warm-start
//     caches are returned with stale contents: key and cell buffers are handed
//     out with length 0 (a step's build overwrites every entry the scan reads),
//     and the detectors refill the tables and caches before the first step
//     (DESIGN.md §10).
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
// the sort pair). The caps leave room for a few runs at once — concurrent
// server requests, or a screen beside a delta pass — to hand theirs back; maps
// retain their buckets forever, so only a few are kept.
const (
	maxIdleGridSets = 4
	maxIdleBuffers  = 16
	maxIdleIndexes  = 8
	maxIdleKeyBufs  = 128 // runs hold one per worker and one for the collected list
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
	states   [][]propagation.State
	indexes  []map[int32]int32
	keyBufs  [][]uint64
	cellBufs [][]lockfree.Cell
	gateRows [][]lockfree.GateRow
	motion   [][]lockfree.MotionRow
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
	p.states = nil
	p.indexes = nil
	p.keyBufs = nil
	p.cellBufs = nil
	p.gateRows = nil
	p.motion = nil
	p.kcaches = nil
	p.bitsets = nil
	p.mu.Unlock()
}

// nextPow2 mirrors the rounding of lockfree.NewGridSet so fit checks compare
// like with like.
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

// GetGridSet returns a grid set with at least slotHint slots (rounded up to
// a power of two) and room for maxEntries entries — a delta pass's stamp
// table, the one grid set the pipeline draws. The set's fill state is
// unspecified; Reset before relying on emptiness. The oversize window applies
// to the entry arena as well as the slots: a small delta's table (a few
// hundred entries, reset every step) must not be served by an idle one whose
// slot count happens to sit inside the window but whose arena does not.
func (p *Pool) GetGridSet(slotHint, maxEntries int) *lockfree.GridSet {
	want := nextPow2(slotHint)
	g, ok := take(p, &p.gridSets, func(g *lockfree.GridSet) (int, bool) {
		return g.Slots(), g.Slots() >= want && g.EntryCapacity() >= maxEntries &&
			g.Slots() <= oversizeFactor*want && g.EntryCapacity() <= oversizeFactor*(maxEntries+1)
	})
	if !ok {
		return lockfree.NewGridSet(slotHint, maxEntries)
	}
	return g
}

// PutGridSet returns a grid set to the pool. nil is ignored.
func (p *Pool) PutGridSet(g *lockfree.GridSet) {
	if g != nil {
		put(p, &p.gridSets, g, maxIdleGridSets)
	}
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

// GetStates returns a state buffer of length n with stale contents; the
// propagation phase overwrites every element before anything reads it.
func (p *Pool) GetStates(n int) []propagation.State { return getBuf(p, &p.states, n, true)[:n] }

// PutStates returns a state buffer to the pool. nil is ignored.
func (p *Pool) PutStates(s []propagation.State) { putBuf(p, &p.states, s, maxIdleBuffers) }

// GetKeyBuf returns a zero-length packed pair-key buffer with capacity at
// least capHint — a run's per-worker candidate buffers, which grow by append
// inside the workers, and the one list they are collected into. A warm pool
// converges on the population's natural candidate volume and stops allocating.
func (p *Pool) GetKeyBuf(capHint int) []uint64 { return getBuf(p, &p.keyBufs, capHint, false) }

// PutKeyBuf returns a pair-key buffer to the pool. nil is ignored.
func (p *Pool) PutKeyBuf(b []uint64) { putBuf(p, &p.keyBufs, b, maxIdleKeyBufs) }

// GetCellBuf returns a zero-length cell buffer with capacity at least capHint
// — a full screen's build writes each step's entries into one, and its scan
// sorts them between two more (drawn as one buffer of twice the length).
func (p *Pool) GetCellBuf(capHint int) []lockfree.Cell {
	return getBuf(p, &p.cellBufs, capHint, false)
}

// PutCellBuf returns a cell buffer to the pool. nil is ignored.
func (p *Pool) PutCellBuf(b []lockfree.Cell) { putBuf(p, &p.cellBufs, b, maxIdleBuffers) }

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
// the detectors reinitialise every entry before the first sampling step.
func (p *Pool) GetKeplerCache(n int) []propagation.KeplerCache {
	return getBuf(p, &p.kcaches, n, true)[:n]
}

// PutKeplerCache returns a warm-start cache to the pool. nil is ignored.
func (p *Pool) PutKeplerCache(c []propagation.KeplerCache) { putBuf(p, &p.kcaches, c, maxIdleBuffers) }

// GetBitset returns a zeroed ID bitset of exactly `words` uint64 words —
// the dirty/touched membership sets of an incremental (delta) screen. The
// zeroing pass is what makes reuse correct, so Get pays O(words); words is
// maxID/64, tiny next to the structures the screen itself holds.
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
