package core

// The key track and the session that carries it (DESIGN.md §11). A row of cell
// keys is a pure function of one object's elements and the run's trackShape, so
// within one delta chain a pass's clean objects have the keys the pass before
// computed. The track keeps them — per object the step-0 key, then one byte per
// step, the move from the previous cell — and the stamping pass (delta.go) reads
// a valid row instead of solving Kepler, and writes every row it does solve.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/lockfree"
	"repro/internal/propagation"
	"repro/internal/spatial"
)

// A row is read while valid. Every other object is solved, and its keys noted
// into its row while that is open; rowUnencodable: this pass met a sample
// outside the cube or a jump the byte cannot hold, and stopped noting.
type rowState uint8

const (
	rowInvalid rowState = iota
	rowValid
	rowOpen
	rowUnencodable
)

// moveSpan bounds a move per axis. Eq. 1 cells are d + 7.8·s_ps km wide and a
// bound orbit stays under the 11.2 km/s escape speed: under 1.44 cells a step,
// so at most two cell boundaries per axis.
const moveSpan = 2

// moveCode is the byte for the move between two in-cube keys, if it has one.
func (t *keyTrack) moveCode(from, to uint64) (code byte, ok bool) {
	a, b := t.grid.Coord(from), t.grid.Coord(to)
	dx, dy, dz := b.X-a.X+moveSpan, b.Y-a.Y+moveSpan, b.Z-a.Z+moveSpan
	ok = uint32(dx) <= 2*moveSpan && uint32(dy) <= 2*moveSpan && uint32(dz) <= 2*moveSpan
	return byte(dx*25 + dy*5 + dz), ok
}

// trackShape is what a row depends on besides its object's elements.
type trackShape struct {
	n, steps  int
	sps, cell float64
	maxAbs    int32   // grid.MaxAbsCoord(): a dirty object can move autoHalfExtent, and the key layout with it
	stride    int     // m: which steps positionAt solves
	pad       float64 // which interpolated positions it solves too, near a cell face
}

// keyTrack holds the rows. moves is step-major — object i's move into step s is
// moves[(s−1)·n+i] — so a step touches one stripe, each worker its own range.
type keyTrack struct {
	trackShape
	grid      *spatial.Grid // a grid of the run that made the track: same maxAbs, so same key layout
	moveDelta [125]uint64   // code (dx+2)·25 + (dy+2)·5 + (dz+2) → what the move adds to a key of grid
	ids       []int32       // sats[i].ID, dense: the probe reads it, not the 168-byte satellite
	key0, cur []uint64      // the step-0 key; the key at the step last read or noted
	moves     []byte
	state     []rowState
}

// noTrack has no rows: a stateless ScreenDelta, or a session past the budget,
// solves every object and keeps nothing.
var noTrack = &keyTrack{}

// trackBudgetBytes bounds the moves a session keeps, one byte per object-step:
// hybrid to 500k objects, a 1 s grid to 55k.
const trackBudgetBytes int64 = 32 << 20

func trackFits(n, steps int) bool { return int64(steps-1)*int64(n) <= trackBudgetBytes }

func newKeyTrack(shape trackShape, grid *spatial.Grid, sats []propagation.Satellite) *keyTrack {
	n := shape.n
	t := &keyTrack{trackShape: shape, grid: grid, ids: make([]int32, n), key0: make([]uint64, n), cur: make([]uint64, n),
		moves: make([]byte, (shape.steps-1)*n), state: make([]rowState, n)}
	// Keys are linear in the biased coordinates, and between two in-cube
	// cells no field carries into the next (spatial.Grid).
	fb := grid.FieldBits()
	for c := range t.moveDelta {
		dx, dy, dz := int64(c/25-moveSpan), int64(c/5%5-moveSpan), int64(c%5-moveSpan)
		t.moveDelta[c] = uint64(dx<<(2*fb) + dy<<fb + dz)
	}
	for i := range sats {
		t.ids[i] = sats[i].ID
	}
	return t
}

func (t *keyTrack) bytes() int { return len(t.moves) + 21*len(t.ids) } // state 1, ids 4, key0 and cur 8 each

// begin opens a pass — the dirty rows and every row not valid will be solved
// and noted — and returns how many rows are left to read.
func (t *keyTrack) begin(dirtyIdx []int32) (tracked int) {
	for _, i := range dirtyIdx {
		if t.valid(int(i)) {
			t.state[i] = rowInvalid
		}
	}
	for i, s := range t.state {
		if s == rowValid {
			tracked++
		} else {
			t.state[i] = rowOpen
		}
	}
	return tracked
}

// commit closes a pass whose sampling completed: the rows it wrote in full
// become valid. A failed pass never gets here, and the next begin reopens what
// it (like an unencodable row) left behind.
func (t *keyTrack) commit() {
	for i, s := range t.state {
		if s == rowOpen {
			t.state[i] = rowValid
		}
	}
}

// valid reports whether the pass reads object i's keys from its row.
func (t *keyTrack) valid(i int) bool { return i < len(t.state) && t.state[i] == rowValid }

// advance moves valid row i to step (a pass visits them in order): its key there.
func (t *keyTrack) advance(i int, step uint32) uint64 {
	key := t.key0[i]
	if step > 0 {
		key = t.cur[i] + t.moveDelta[t.moves[(int(step)-1)*t.n+i]]
	}
	t.cur[i] = key
	return key
}

// note writes the key object i was solved to at step (lockfree.EmptySlot:
// outside the cube) into its row while the row is open. The rows of one step
// are noted by one worker each, with plain stores.
func (t *keyTrack) note(i int, step uint32, key uint64) {
	if i >= len(t.state) || t.state[i] != rowOpen {
		return
	}
	code, ok := byte(0), key != lockfree.EmptySlot
	if ok && step > 0 {
		code, ok = t.moveCode(t.cur[i], key)
	}
	switch {
	case !ok:
		t.state[i] = rowUnencodable
	case step == 0:
		t.key0[i], t.cur[i] = key, key
	default:
		t.moves[(int(step)-1)*t.n+i], t.cur[i] = code, key
	}
}

// Pass is one link of a session's chain as the catalogue layer reports it
// (catalog.DirtySince): the population's epoch, the IDs added or updated and
// removed since the session's last completed pass (DeltaInput's contract), and
// whether those account for every change since — if not, the session screens
// from scratch. Observer, when non-nil, replaces the configuration's for the pass.
type Pass struct {
	Epoch          time.Time
	Dirty, Removed []int32
	Covered        bool
	Observer       Observer
}

// Session chains the passes of one continuously screened catalogue: it owns the
// prior conjunctions, their epoch and the key track, and decides whether a pass
// extends the chain or starts it over. A stateless ScreenDelta is the same pass
// with no session: no row valid, nothing kept. Not safe for concurrent use.
type Session struct {
	desc    Descriptor
	cfg     Config
	prior   []Conjunction
	epoch   time.Time
	primed  bool      // a pass has completed: prior (possibly empty) and epoch are its
	track   *keyTrack // nil: none yet, or dropped
	dropped string    // why rows were last dropped, until a completed pass reports it (PhaseStats.TrackDropped)
}

// NewSession returns a session screening under cfg with the named variant,
// which must have an incremental mode (Descriptor.Incremental).
func NewSession(variant Variant, cfg Config) (*Session, error) {
	desc, ok := Lookup(variant)
	if !ok || !desc.Incremental {
		return nil, fmt.Errorf("core: variant %q is not registered with an incremental mode", variant)
	}
	return &Session{desc: desc, cfg: cfg}, nil
}

// Incremental reports whether Screen runs p as a delta pass: a prior result
// exists, for the same epoch, and p covers the changes since.
func (s *Session) Incremental(p Pass) bool {
	return s.primed && p.Covered && p.Epoch.Equal(s.epoch)
}

// Screen runs the next pass over sats — a delta pass when Incremental(p), else a
// full screen — and on success makes its result the chain's prior. A failed pass
// leaves the chain where it was: retry with the changes accumulated since.
func (s *Session) Screen(ctx context.Context, sats []propagation.Satellite, p Pass) (*Result, error) {
	cfg := s.cfg
	if p.Observer != nil {
		cfg.Observer = p.Observer
	}
	det := s.desc.New(cfg)
	var res *Result
	var err error
	if s.Incremental(p) {
		if !stampingPays(len(p.Dirty), len(sats)) {
			s.drop("crossover")
		}
		delta := DeltaInput{Prior: s.prior, Dirty: p.Dirty, Removed: p.Removed, session: s}
		res, err = det.(DeltaDetector).ScreenDelta(ctx, sats, delta) // Incremental's promise (Register)
	} else {
		reason := "journal"
		if !p.Epoch.Equal(s.epoch) {
			reason = "epoch"
		}
		s.drop(reason) // a full screen writes no rows, so no track outlives one
		res, err = det.ScreenContext(ctx, sats)
	}
	if err != nil {
		if s.track != nil {
			s.dropped = "failed-pass" // what the pass had opened is solved again
		}
		return nil, err
	}
	s.prior, s.epoch, s.primed = res.Conjunctions, p.Epoch, true
	res.Stats.TrackDropped, s.dropped = s.dropped, ""
	return res, nil
}

// drop discards the track, if there is one.
func (s *Session) drop(reason string) {
	if s.track != nil {
		s.track, s.dropped = nil, reason
	}
}

// trackFor returns the track a stamping pass reads and writes: the session's
// while its rows still describe the run, a fresh one (no row valid) when they
// do not, noTrack without a session or past the budget.
func (s *Session) trackFor(r *run) *keyTrack {
	shape := trackShape{n: len(r.sats), steps: r.steps, sps: r.sps, cell: r.cellSize, maxAbs: r.grid.MaxAbsCoord(), stride: r.stride, pad: r.pad}
	switch {
	case s == nil:
		return noTrack
	case !trackFits(shape.n, shape.steps):
		s.track, s.dropped = nil, "budget"
		return noTrack
	}
	if t := s.track; t != nil {
		same := t.n == shape.n
		for i := 0; same && i < t.n; i++ {
			same = r.sats[i].ID == t.ids[i]
		}
		switch {
		case !same:
			s.drop("membership") // rows are positional
		case t.trackShape != shape:
			s.drop("geometry")
		}
	}
	if s.track == nil {
		s.track = newKeyTrack(shape, r.grid, r.sats)
	}
	return s.track
}
