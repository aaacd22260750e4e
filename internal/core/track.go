package core

// The key track and the session that carries it (DESIGN.md §11). A row of cell
// keys is a pure function of one object's elements and the run's trackShape, so
// within one delta chain a pass's clean objects have the keys the pass before
// computed. The track keeps them — per step the move from the previous cell,
// per window of boxSteps steps a ref, the window's box of cells and start key,
// indexed by box — for the delta pass (delta.go) to read instead of solving.

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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

// boxSteps is W, the steps of a window, so a box spans at most moveSpan·(W−1)
// cells per axis; overlayShare: the overlay is merged into the index once it
// holds more than n/overlayShare rows. Paired runs chose both (EXPERIMENTS.md).
const boxSteps, overlayShare = 8, 8

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
// A ref is a lockfree.Cell: Key the box's least corner (key order is least-x
// order), Lo the row, Hi five bits an axis: the extents, the start's offsets.
type keyTrack struct {
	trackShape
	grid      *spatial.Grid // a grid of the run that made the track: same maxAbs, so same key layout
	moveDelta [125]uint64   // code (dx+2)·25 + (dy+2)·5 + (dz+2) → what the move adds to a key of grid
	ids       []int32       // sats[i].ID: trackFor checks the membership against them
	cur       []uint64      // the key at the step last read, entered or noted
	moves     []byte
	state     []rowState

	index     [][]lockfree.Cell // per window, in key order: the refs of the rows valid at the last merge; nil before the first commit
	overlay   [][]lockfree.Cell // per window, in key order: the refs of the rows rewritten since
	reach     [][3]int32        // per window: the largest extent per axis among them
	rewritten []bool            // the row's refs are in overlay, its index refs stale
	fresh     []lockfree.Cell   // window-major: the refs the open pass notes, by the row's place in its list
	opened    int               // fresh's stride: the rows the open pass opened
}

// noTrack has no rows: a stateless ScreenDelta, or a session past the budget,
// solves every object and keeps nothing.
var noTrack = &keyTrack{}

// trackBudgetBytes bounds trackBytes: hybrid to 500k objects, a 1 s grid to 73k.
const trackBudgetBytes int64 = 160 << 20

// trackBytes is a track's size: a move per object-step, 14 B a row (state, rewritten,
// ID, cur), 22 a row-window (its index ref, an n/4-row overlay, a pass's n/8).
func trackBytes(n, steps int) int64 {
	return int64(max(steps-1, 0))*int64(n) + int64(n)*int64(14+22*((steps+boxSteps-1)/boxSteps))
}

func trackFits(n, steps int) bool { return trackBytes(n, steps) <= trackBudgetBytes }

func newKeyTrack(shape trackShape, grid *spatial.Grid, sats []propagation.Satellite) *keyTrack {
	n := shape.n
	t := &keyTrack{trackShape: shape, grid: grid, ids: make([]int32, n), cur: make([]uint64, n),
		moves: make([]byte, (shape.steps-1)*n), state: make([]rowState, n), rewritten: make([]bool, n)}
	for i := range sats {
		t.ids[i] = sats[i].ID
	}
	t.overlay = make([][]lockfree.Cell, t.windows())
	// Keys are linear in the biased coordinates, and between two in-cube
	// cells no field carries into the next (spatial.Grid).
	fb := grid.FieldBits()
	for c := range t.moveDelta {
		dx, dy, dz := int64(c/25-moveSpan), int64(c/5%5-moveSpan), int64(c%5-moveSpan)
		t.moveDelta[c] = uint64(dx<<(2*fb) + dy<<fb + dz)
	}
	return t
}

func (t *keyTrack) bytes() int { return int(trackBytes(t.n, t.steps)) }

func (t *keyTrack) windows() int { return (t.steps + boxSteps - 1) / boxSteps }

// begin opens a pass — the dirty rows, then every other row not valid, will
// be solved and noted (listUnread) — and returns the rows valid at its start.
// Its ref slots start empty: a row gone unencodable before a window writes
// none there, and commit drops what no row wrote.
func (t *keyTrack) begin(dirtyIdx []int32) (valid int) {
	for _, i := range dirtyIdx {
		if t.valid(int(i)) {
			t.state[i] = rowInvalid
		}
	}
	for i, s := range t.state {
		if s == rowValid {
			valid++
		} else {
			t.state[i] = rowOpen
		}
	}
	if t.n > 0 { // noTrack is shared
		t.opened = t.n - valid
		t.fresh = slices.Grow(t.fresh[:0], t.opened*t.windows())[:t.opened*t.windows()]
		for j := range t.fresh {
			t.fresh[j] = lockfree.Cell{Key: lockfree.EmptySlot}
		}
	}
	return valid
}

// commit closes a completed pass: the rows it wrote become valid and their
// refs, sorted, the index on the first pass, later merged into the overlay in
// place of the rows' earlier ones; past n/overlayShare rows the overlay goes
// into the index in place of its stale and invalid refs (so within n).
func (t *keyTrack) commit() {
	if t.n == 0 {
		return
	}
	open, first := func(r lockfree.Cell) bool { return r.Key != lockfree.EmptySlot && t.state[r.Lo] == rowOpen }, t.index == nil
	if first {
		t.index, t.reach = make([][]lockfree.Cell, t.windows()), make([][3]int32, t.windows())
	}
	for w, ov := range t.overlay {
		fresh := slices.DeleteFunc(t.fresh[w*t.opened:(w+1)*t.opened:(w+1)*t.opened], func(r lockfree.Cell) bool { return !open(r) })
		slices.SortFunc(fresh, byKey)
		for _, r := range fresh {
			t.reach[w] = [3]int32{max(t.reach[w][0], r.Hi&31), max(t.reach[w][1], r.Hi>>5&31), max(t.reach[w][2], r.Hi>>10&31)}
		}
		if first {
			t.index[w] = fresh
		} else {
			t.overlay[w] = mergeRefs(slices.DeleteFunc(ov, open), fresh)
		}
	}
	t.fresh = nil // the first pass's are the index now
	for i, s := range t.state {
		if s == rowOpen {
			t.state[i], t.rewritten[i] = rowValid, !first
		}
	}
	if len(t.overlay[0]) <= t.n/overlayShare {
		return
	}
	for w, ov := range t.overlay {
		ix := slices.DeleteFunc(t.index[w], func(r lockfree.Cell) bool { return !t.valid(int(r.Lo)) || t.rewritten[r.Lo] })
		t.index[w], t.overlay[w] = mergeRefs(ix, slices.DeleteFunc(ov, func(r lockfree.Cell) bool { return !t.valid(int(r.Lo)) })), ov[:0]
	}
	clear(t.rewritten)
}

// mergeRefs merges sorted b into sorted a from the back, in a's array if room.
func mergeRefs(a, b []lockfree.Cell) []lockfree.Cell {
	i, k := len(a)-1, len(a)+len(b)-1
	a = slices.Grow(a, len(b))[:k+1]
	for j := len(b) - 1; j >= 0; k-- {
		if i >= 0 && a[i].Key > b[j].Key {
			a[k], i = a[i], i-1
		} else {
			a[k], j = b[j], j-1
		}
	}
	return a
}

func byKey(a, b lockfree.Cell) int { return cmp.Compare(a.Key, b.Key) }

// refBox is the box of ref r, its least and greatest cell; refStart the key
// its row starts the window at.
func (t *keyTrack) refBox(r lockfree.Cell) (lo, hi spatial.Coord) {
	lo = t.grid.Coord(r.Key)
	return lo, spatial.Coord{X: lo.X + r.Hi&31, Y: lo.Y + r.Hi>>5&31, Z: lo.Z + r.Hi>>10&31}
}

func (t *keyTrack) refStart(r lockfree.Cell) uint64 {
	fb := t.grid.FieldBits()
	return r.Key + uint64(r.Hi>>15&31)<<(2*fb) + uint64(r.Hi>>20&31)<<fb + uint64(r.Hi>>25&31)
}

// grown is ref r grown to cover cell c; c's alone if r.Key is EmptySlot.
func (t *keyTrack) grown(r lockfree.Cell, c spatial.Coord) lockfree.Cell {
	if r.Key == lockfree.EmptySlot {
		return lockfree.Cell{Key: t.grid.Key(c), Lo: r.Lo}
	}
	lo, hi := t.refBox(r)
	s := t.grid.Coord(t.refStart(r))
	lo = spatial.Coord{X: min(lo.X, c.X), Y: min(lo.Y, c.Y), Z: min(lo.Z, c.Z)}
	hi = spatial.Coord{X: max(hi.X, c.X), Y: max(hi.Y, c.Y), Z: max(hi.Z, c.Z)}
	return lockfree.Cell{Key: t.grid.Key(lo), Lo: r.Lo, Hi: hi.X - lo.X | (hi.Y-lo.Y)<<5 | (hi.Z-lo.Z)<<10 |
		(s.X-lo.X)<<15 | (s.Y-lo.Y)<<20 | (s.Z-lo.Z)<<25}
}

// meeting appends to hits the refs of the valid rows whose window-w boxes
// meet a box of boxes (a row once per box), from the index less its stale
// refs and from the overlay: per x, one key range of the y it allows.
func (t *keyTrack) meeting(w int, boxes [][2]spatial.Coord, hits []lockfree.Cell) []lockfree.Cell {
	m, reach := t.grid.MaxAbsCoord(), t.reach[w]
	for _, b := range boxes {
		y0, y1 := max(b[0].Y-reach[1], -m), min(b[1].Y, m)
		for l, refs := range [2][]lockfree.Cell{t.index[w], t.overlay[w]} {
			for x, j := max(b[0].X-reach[0], -m), 0; x <= min(b[1].X, m); x++ {
				from, to := t.grid.Key(spatial.Coord{X: x, Y: y0, Z: -m}), t.grid.Key(spatial.Coord{X: x, Y: y1, Z: m})
				k, _ := slices.BinarySearchFunc(refs[j:], lockfree.Cell{Key: from}, byKey)
				for j += k; j < len(refs) && refs[j].Key <= to; j++ {
					lo, hi := t.refBox(refs[j])
					if lo.X <= b[1].X && b[0].X <= hi.X && lo.Y <= b[1].Y && b[0].Y <= hi.Y && lo.Z <= b[1].Z && b[0].Z <= hi.Z &&
						t.valid(int(refs[j].Lo)) && (l == 1 || !t.rewritten[refs[j].Lo]) {
						hits = append(hits, refs[j])
					}
				}
			}
		}
	}
	return hits
}

// valid reports whether the pass reads object i's keys from its row.
func (t *keyTrack) valid(i int) bool { return i < len(t.state) && t.state[i] == rowValid }

// advance moves valid row i to step, read in order from the key its window
// was entered at (set into cur from its ref), and returns its key there.
func (t *keyTrack) advance(i int, step uint32) uint64 {
	if step%boxSteps != 0 {
		t.cur[i] += t.moveDelta[t.moves[(int(step)-1)*t.n+i]]
	}
	return t.cur[i]
}

// note writes the key object i was solved to at step (lockfree.EmptySlot:
// outside the cube) into its open row — the move, and the window's ref at the
// row's place j in the pass's list — with plain stores, one worker a row.
func (t *keyTrack) note(i, j int, step uint32, key uint64) {
	if i >= len(t.state) || t.state[i] != rowOpen {
		return
	}
	code, ok := byte(0), key != lockfree.EmptySlot
	if ok && step > 0 {
		code, ok = t.moveCode(t.cur[i], key)
	}
	if !ok {
		t.state[i] = rowUnencodable
		return
	}
	if step > 0 {
		t.moves[(int(step)-1)*t.n+i] = code
	}
	t.cur[i] = key
	ref := &t.fresh[int(step/boxSteps)*t.opened+j] // empty until its row's window starts (begin)
	ref.Lo = int32(i)
	*ref = t.grown(*ref, t.grid.Coord(key))
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

// trackFor returns the track a delta pass reads and writes: the session's
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
