// Package catalog maintains a versioned satellite catalogue — the evolving
// population a continuously operating screening service watches. The paper
// screens one fixed snapshot; the operational setting it targets (ESA-ESOC
// conjunction screening, §I) receives a daily delta that touches a small
// fraction of the objects. This package turns that stream of deltas into
// something the incremental screener (core.ScreenDelta) can consume:
//
//   - Every ApplyDelta produces a new immutable Revision with a
//     monotonically increasing Version and an epoch tag. Revisions are
//     copy-on-write: the write (the delta) materialises a fresh element
//     array; reads are zero-copy slice handles that stay valid — and
//     stable — for as long as the caller holds them, so an in-flight
//     screen never observes a concurrent delta.
//   - A per-version dirty journal records which object IDs each delta
//     added, updated, or removed. DirtyBetween folds the journal over any
//     version pair into the dirty/removed ID sets that parameterise a
//     delta screen, reconciling intermediate churn (an object updated then
//     removed within the window is reported removed, not dirty).
//
// The catalogue retains the last few revisions (so screens pinned to a
// slightly stale version keep working) and the full dirty journal (small:
// a few int32s per delta), bounded by configurable caps.
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/propagation"
)

// Version is a catalogue revision number. Versions start at 1 and increase
// by exactly 1 per applied delta; 0 means "no version" (before the
// beginning of the journal).
type Version uint64

// Default retention bounds; see Options.
const (
	DefaultKeepRevisions = 4
	DefaultKeepJournal   = 4096
)

// Options tunes catalogue retention. The zero value selects the defaults.
type Options struct {
	// KeepRevisions bounds how many past revisions stay materialised
	// (≤ 0 selects DefaultKeepRevisions). The latest revision is always
	// retained; handles returned earlier remain valid regardless — pruning
	// only drops the catalogue's own reference.
	KeepRevisions int
	// KeepJournal bounds the dirty journal's length in versions (≤ 0
	// selects DefaultKeepJournal). DirtyBetween over a window that
	// reaches past the journal reports ok = false, and the caller falls
	// back to a full screen.
	KeepJournal int
}

// Revision is one immutable catalogue state. The satellite slice is shared,
// never mutated after publication; callers must treat it as read-only.
type Revision struct {
	version Version
	epoch   time.Time
	sats    []propagation.Satellite
	// index maps an ID to its position in sats. It is built when membership
	// changes and shared, like sats never mutated, by every later revision
	// whose deltas only update: an update keeps every position.
	index map[int32]int32
}

// Version returns the revision's number.
func (r *Revision) Version() Version { return r.version }

// Epoch returns the instant the revision's elements are referenced to
// (screening t = 0 for runs over this revision).
func (r *Revision) Epoch() time.Time { return r.epoch }

// Len returns the population size.
func (r *Revision) Len() int { return len(r.sats) }

// Satellites returns the revision's population. The slice is shared and
// immutable: do not modify it or its elements.
func (r *Revision) Satellites() []propagation.Satellite { return r.sats }

// Delta is one batch of catalogue changes. Adds must introduce new IDs,
// Updates must name existing IDs, Removes must name existing IDs; IDs may
// appear in at most one of the three lists.
type Delta struct {
	// Epoch tags the resulting revision; the zero value keeps the previous
	// revision's epoch (elements re-referenced in place).
	Epoch   time.Time
	Adds    []propagation.Satellite
	Updates []propagation.Satellite
	Removes []int32
}

// Dirty returns the IDs the delta adds or updates, in list order.
func (d Delta) Dirty() []int32 {
	out := make([]int32, 0, len(d.Adds)+len(d.Updates))
	for i := range d.Adds {
		out = append(out, d.Adds[i].ID)
	}
	for i := range d.Updates {
		out = append(out, d.Updates[i].ID)
	}
	return out
}

// journalEntry records one version transition's churn.
type journalEntry struct {
	version Version // the version the delta produced
	dirty   []int32 // IDs added or updated by the delta
	removed []int32 // IDs removed by the delta
}

// Catalog is a thread-safe versioned catalogue. Use New.
type Catalog struct {
	mu   sync.RWMutex
	opts Options
	revs []*Revision // ascending version, latest last; len ≤ KeepRevisions
	// journal covers versions (journalBase, Latest]: entry i is the delta
	// that produced version journalBase + i + 1.
	journal     []journalEntry
	journalBase Version
}

// New returns a catalogue whose version 1 holds the initial population
// (which may be empty) referenced to epoch. The initial slice is copied.
func New(initial []propagation.Satellite, epoch time.Time, opts Options) (*Catalog, error) {
	if opts.KeepRevisions <= 0 {
		opts.KeepRevisions = DefaultKeepRevisions
	}
	if opts.KeepJournal <= 0 {
		opts.KeepJournal = DefaultKeepJournal
	}
	index, err := indexOf(initial)
	if err != nil {
		return nil, err
	}
	sats := make([]propagation.Satellite, len(initial))
	copy(sats, initial)
	c := &Catalog{opts: opts, journalBase: 1}
	c.revs = []*Revision{{version: 1, epoch: epoch, sats: sats, index: index}}
	return c, nil
}

// indexOf builds a revision's ID → position map, refusing a repeated ID.
func indexOf(sats []propagation.Satellite) (map[int32]int32, error) {
	index := make(map[int32]int32, len(sats))
	for i := range sats {
		id := sats[i].ID
		if _, dup := index[id]; dup {
			return nil, fmt.Errorf("catalog: duplicate satellite ID %d", id)
		}
		index[id] = int32(i)
	}
	return index, nil
}

// Version returns the latest revision number.
func (c *Catalog) Version() Version {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.latestLocked().version
}

// Latest returns the newest revision.
func (c *Catalog) Latest() *Revision {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.latestLocked()
}

func (c *Catalog) latestLocked() *Revision { return c.revs[len(c.revs)-1] }

// At returns the revision with the given version, if still retained.
func (c *Catalog) At(v Version) (*Revision, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.atLocked(v)
}

func (c *Catalog) atLocked(v Version) (*Revision, bool) {
	// revs is ascending and contiguous, so index arithmetic suffices.
	first := c.revs[0].version
	if v < first || v > c.latestLocked().version {
		return nil, false
	}
	return c.revs[v-first], true
}

// ApplyDelta validates and applies d, returning the new revision. The
// previous revision's element array is never mutated (copy-on-write): every
// handle handed out before the call keeps observing the old state. On any
// validation error the catalogue is unchanged.
func (c *Catalog) ApplyDelta(d Delta) (*Revision, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.latestLocked()

	// Validate the delta against the current population and against itself
	// before touching anything.
	byID := prev.index
	touched := make(map[int32]struct{}, len(d.Adds)+len(d.Updates)+len(d.Removes))
	claim := func(id int32, kind string) error {
		if _, dup := touched[id]; dup {
			return fmt.Errorf("catalog: delta names ID %d more than once (%s)", id, kind)
		}
		touched[id] = struct{}{}
		return nil
	}
	for i := range d.Adds {
		id := d.Adds[i].ID
		if _, exists := byID[id]; exists {
			return nil, fmt.Errorf("catalog: add of existing ID %d (use an update)", id)
		}
		if err := claim(id, "add"); err != nil {
			return nil, err
		}
	}
	for i := range d.Updates {
		id := d.Updates[i].ID
		if _, exists := byID[id]; !exists {
			return nil, fmt.Errorf("catalog: update of unknown ID %d", id)
		}
		if err := claim(id, "update"); err != nil {
			return nil, err
		}
	}
	removed := make(map[int32]struct{}, len(d.Removes))
	for _, id := range d.Removes {
		if _, exists := byID[id]; !exists {
			return nil, fmt.Errorf("catalog: remove of unknown ID %d", id)
		}
		if err := claim(id, "remove"); err != nil {
			return nil, err
		}
		removed[id] = struct{}{}
	}

	// Copy-on-write: build the new element array from the old one — without
	// removals, one copy of it. Only a removal or an add moves or makes a
	// position, so only then is the index rebuilt.
	sats := slices.Clone(prev.sats)
	if len(d.Removes) > 0 {
		sats = slices.DeleteFunc(sats, func(s propagation.Satellite) bool {
			_, gone := removed[s.ID]
			return gone
		})
	}
	sats = append(sats, d.Adds...)
	index := prev.index
	if len(d.Adds)+len(d.Removes) > 0 {
		var err error
		if index, err = indexOf(sats); err != nil {
			return nil, err
		}
	}
	for i := range d.Updates {
		sats[index[d.Updates[i].ID]] = d.Updates[i]
	}

	epoch := d.Epoch
	if epoch.IsZero() {
		epoch = prev.epoch
	}
	rev := &Revision{version: prev.version + 1, epoch: epoch, sats: sats, index: index}
	c.revs = append(c.revs, rev)
	if len(c.revs) > c.opts.KeepRevisions {
		over := len(c.revs) - c.opts.KeepRevisions
		c.revs = append([]*Revision(nil), c.revs[over:]...)
	}

	entry := journalEntry{version: rev.version, dirty: d.Dirty(), removed: append([]int32(nil), d.Removes...)}
	c.journal = append(c.journal, entry)
	if len(c.journal) > c.opts.KeepJournal {
		over := len(c.journal) - c.opts.KeepJournal
		c.journal = append([]journalEntry(nil), c.journal[over:]...)
		c.journalBase += Version(over)
	}
	return rev, nil
}

// DirtyBetween folds the journal over (from, to] into the inputs of an
// incremental screen against version `to`: dirty is every ID present at
// `to` that a delta in the window added or updated (or removed and
// re-added), removed is every journalled ID absent at `to`. Both are sorted
// and duplicate-free. ok is false when the window is not answerable — `to`
// is pruned or unknown, from > to, or the journal no longer covers
// (from, to] — and the caller must fall back to a full screen. from == to
// yields empty sets for every version the catalogue has ever had, pruned or
// not: an empty window needs no membership data.
func (c *Catalog) DirtyBetween(from, to Version) (dirty, removed []int32, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.dirtyBetweenLocked(from, to)
}

func (c *Catalog) dirtyBetweenLocked(from, to Version) (dirty, removed []int32, ok bool) {
	if from == to {
		return nil, nil, from >= 1 && to <= c.latestLocked().version
	}
	toRev, have := c.atLocked(to)
	if !have || from > to {
		return nil, nil, false
	}
	if from < c.journalBase {
		return nil, nil, false
	}
	present := toRev.index
	seen := make(map[int32]struct{})
	classify := func(id int32) {
		if _, dup := seen[id]; dup {
			return
		}
		seen[id] = struct{}{}
		if _, in := present[id]; in {
			dirty = append(dirty, id)
		} else {
			removed = append(removed, id)
		}
	}
	for v := from + 1; v <= to; v++ {
		e := c.journal[v-c.journalBase-1]
		for _, id := range e.dirty {
			classify(id)
		}
		for _, id := range e.removed {
			classify(id)
		}
	}
	sortIDs(dirty)
	sortIDs(removed)
	return dirty, removed, true
}

// DirtySince is DirtyBetween against the latest revision, returning that
// revision too so the caller screens exactly the population the sets
// describe.
func (c *Catalog) DirtySince(from Version) (rev *Revision, dirty, removed []int32, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	latest := c.latestLocked()
	dirty, removed, ok = c.dirtyBetweenLocked(from, latest.version)
	return latest, dirty, removed, ok
}

func sortIDs(ids []int32) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
