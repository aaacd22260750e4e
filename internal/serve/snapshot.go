// Package serve is the read-side fan-out subsystem between the continuous
// screening loop and the HTTP layer (DESIGN.md §15). The write side — the
// Rescreener — produces a complete conjunction set per catalogue version;
// this package turns each one into an immutable Snapshot published through
// an atomic pointer, so any number of readers revalidate or page through
// the live conjunction set without touching screening data structures or
// taking the store lock, and a subscription Hub diffs consecutive
// snapshots to push per-object conjunction events to many concurrent
// subscribers. Admission control (token buckets per client) bounds what
// the read side will accept.
package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
)

// Snapshot is one catalogue version's complete conjunction set, immutable
// after construction. Readers hold it across a whole response without
// locks: a later publish replaces the pointer, never the contents.
type Snapshot struct {
	// Version is the catalogue version this set was screened from.
	Version uint64
	// Epoch anchors the conjunctions' TCA seconds.
	Epoch time.Time
	// ProducedAt is when the screening pass finished (Last-Modified).
	ProducedAt time.Time
	// Incremental records whether the producing pass used the delta path.
	Incremental bool
	// Objects is the screened population size.
	Objects int
	// Conjunctions is sorted by core.CompareConjunctions. Treat as read-only.
	Conjunctions []core.Conjunction
	// ETag is the strong entity tag (version + content hash), quoted.
	ETag string
}

// etagSeed keys the snapshot content hash; any fixed value works, it only
// has to be stable across processes so ETags survive restarts.
const etagSeed = 0xC0117E57

// NewSnapshot copies and sorts conjs and computes the content-addressed
// ETag. The input slice is not retained.
func NewSnapshot(version uint64, epoch, producedAt time.Time, objects int, incremental bool, conjs []core.Conjunction) *Snapshot {
	cs := make([]core.Conjunction, len(conjs))
	copy(cs, conjs)
	slices.SortFunc(cs, core.CompareConjunctions)
	h := hash.New128(etagSeed)
	var buf [28]byte
	binary.LittleEndian.PutUint64(buf[:8], version)
	_, _ = h.Write(buf[:8])
	for _, c := range cs {
		binary.LittleEndian.PutUint32(buf[0:], uint32(c.A))
		binary.LittleEndian.PutUint32(buf[4:], uint32(c.B))
		binary.LittleEndian.PutUint32(buf[8:], c.Step)
		binary.LittleEndian.PutUint64(buf[12:], math.Float64bits(c.TCA))
		binary.LittleEndian.PutUint64(buf[20:], math.Float64bits(c.PCA))
		_, _ = h.Write(buf[:])
	}
	hi, lo := h.Sum128()
	return &Snapshot{
		Version:      version,
		Epoch:        epoch,
		ProducedAt:   producedAt,
		Incremental:  incremental,
		Objects:      objects,
		Conjunctions: cs,
		ETag:         fmt.Sprintf("\"%d-%016x%016x\"", version, hi, lo),
	}
}

// Select returns the page [offset, offset+limit) of the filtered
// conjunction list in its order, plus the total match count.
// limit <= 0 returns an empty page (total still counts); offset past the
// end likewise.
func (s *Snapshot) Select(f core.Filter, offset, limit int) (page []core.Conjunction, total int) {
	for _, c := range s.Conjunctions {
		if !f.Match(c) {
			continue
		}
		if total >= offset && len(page) < limit {
			page = append(page, c)
		}
		total++
	}
	return page, total
}

// Age returns how old the snapshot is at now.
func (s *Snapshot) Age(now time.Time) time.Duration { return now.Sub(s.ProducedAt) }
