// Package a is the frozenwrite fixture: a self-contained GridSnapshot and
// Pool mirroring internal/lockfree + internal/pool, with want-comments on
// every line the analyzer must flag.
package a

type Cell struct {
	Key    uint64
	Lo, Hi int32
}

type GridSnapshot struct {
	cells []Cell
	ids   []int32
	n     int
}

// Freeze and Reset are the whitelisted transitions: Freeze publishes the
// snapshot, Reset is the pool's recycle wipe.
func (s *GridSnapshot) Freeze() { s.n = len(s.ids) }
func (s *GridSnapshot) Reset()  { s.n = 0 }

// fill stores through the receiver; ensure mutates only transitively, which
// the fixpoint must still classify as mutating.
func (s *GridSnapshot) fill(i int)   { s.ids[i] = 1 }
func (s *GridSnapshot) ensure(n int) { s.fill(n) }

// Read-only methods stay callable on a frozen snapshot.
func (s *GridSnapshot) Entries() int  { return s.n }
func (s *GridSnapshot) Cells() []Cell { return s.cells }
func (s *GridSnapshot) IDs() []int32  { return s.ids }

type Pool struct{}

func (p *Pool) GetSnapshot(n int) *GridSnapshot { return &GridSnapshot{} }
func (p *Pool) PutSnapshot(s *GridSnapshot)     {}

type run struct {
	snap *GridSnapshot
	pool *Pool
}

func read(s *GridSnapshot) {}

// --- mutable phase: everything is allowed before Freeze ---

func buildThenFreeze(p *Pool) {
	s := p.GetSnapshot(8)
	s.fill(0)
	s.ids[1] = 2
	s.ensure(3)
	s.Freeze()
	_ = s.Entries()
}

// --- frozen phase violations ---

func storeAfterFreeze(p *Pool) {
	s := p.GetSnapshot(8)
	s.Freeze()
	s.n = 3 // want "store to s after Freeze"
}

func elementStoreAfterFreeze(p *Pool) {
	s := p.GetSnapshot(8)
	s.Freeze()
	s.ids[0] = 1 // want "store to s after Freeze"
}

func mutatorAfterFreeze(p *Pool) {
	s := p.GetSnapshot(8)
	s.Freeze()
	s.ensure(5) // want "call to mutating method ensure on s after Freeze"
}

func freezeOnOneArmStillProtects(p *Pool, cond bool) {
	s := p.GetSnapshot(8)
	if cond {
		s.Freeze()
	}
	s.n = 1 // want "store to s after Freeze"
}

func frozenOnLoopBackEdge(p *Pool, n int) {
	s := p.GetSnapshot(8)
	for i := 0; i < n; i++ {
		s.ids[0] = 1 // want "store to s after Freeze"
		s.Freeze()
	}
}

func fieldPathStoreAfterFreeze(r *run) {
	r.snap.Freeze()
	r.snap.n = 1 // want "store to r.snap after Freeze"
}

// --- frozen phase: reads stay silent ---

func readAfterFreeze(p *Pool) {
	s := p.GetSnapshot(8)
	s.Freeze()
	_ = s.Entries()
	_, _ = s.Cells(), s.IDs()
	read(s)
}

// sortAfterFreeze is the scan's shape: the frozen cells are read into a
// buffer of the caller's, and only that buffer is written.
func sortAfterFreeze(p *Pool, buf []Cell) {
	s := p.GetSnapshot(8)
	s.Freeze()
	buf = append(buf[:0], s.Cells()...)
	buf[0], buf[1] = buf[1], buf[0]
}

func resetReturnsToMutable(p *Pool) {
	s := p.GetSnapshot(8)
	s.Freeze()
	s.Reset()
	s.n = 1
}

// --- recycled phase: any use is a violation ---

func methodAfterRecycle(p *Pool) {
	s := p.GetSnapshot(8)
	p.PutSnapshot(s)
	_ = s.Entries() // want "use of s after PutSnapshot"
}

func storeAfterRecycle(p *Pool) {
	s := p.GetSnapshot(8)
	p.PutSnapshot(s)
	s.n = 1 // want "store to s after PutSnapshot"
}

func passAfterRecycle(p *Pool) {
	s := p.GetSnapshot(8)
	p.PutSnapshot(s)
	read(s) // want "use of s after PutSnapshot"
}

func rebindAfterRecycle(p *Pool) {
	s := p.GetSnapshot(8)
	p.PutSnapshot(s)
	s = p.GetSnapshot(16)
	s.n = 2
	_ = s
}

// releasePattern is internal/core's release() shape: recycle the field path,
// then nil it out — the rebind keeps later (impossible) uses from flagging.
func releasePattern(r *run) {
	r.snap.Freeze()
	r.pool.PutSnapshot(r.snap)
	r.snap = nil
}

// suppressedWrite documents an intentional post-freeze patch (no such case
// exists in the real tree; the fixture proves the escape hatch works).
func suppressedWrite(p *Pool) {
	s := p.GetSnapshot(8)
	s.Freeze()
	s.n = 1 //lint:frozenwrite-ok fixture-only: proves the suppression path
}
