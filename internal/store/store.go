// Package store persists screening runs and their conjunctions to an
// append-only on-disk log so a restarted service can answer "what did we
// find last night" without re-screening. The format favours crash safety
// over compactness: every record is length-prefixed and checksummed, and
// Open recovers from a torn tail (a crash mid-append) by truncating the
// log back to the last intact record. Queries are served from an
// in-memory index rebuilt on Open — the catalogue sizes this targets
// (thousands of runs, each with at most a few thousand conjunctions) fit
// comfortably in memory, and the disk format stays a dumb log.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// Record layout (all little-endian):
//
//	header:  magic [4]byte | payloadLen uint32 | crc32 uint32
//	payload: runID u64 | catalogVersion u64 | startedAt unixnano i64 |
//	         elapsedSeconds f64 | thresholdKm f64 | durationSeconds f64 |
//	         objects u32 | incremental u8 | variantLen u8 | variant bytes |
//	         nconj u32 | nconj × (A i32 | B i32 | Step u32 | TCA f64 | PCA f64)
//
// The CRC covers the payload only; the magic plus length bound the scan,
// and any mismatch (bad magic, impossible length, CRC failure, short
// read) marks the end of the committed prefix.
const (
	logName        = "conjunctions.log"
	headerSize     = 12
	conjSize       = 28
	maxPayloadSize = 64 << 20 // sanity bound against a corrupt length field
)

var logMagic = [4]byte{'C', 'J', 'L', '1'}

// Run is one persisted screening run.
type Run struct {
	ID             uint64    // monotonically increasing, assigned by Append
	CatalogVersion uint64    // catalogue version that was screened (0 if none)
	StartedAt      time.Time // wall-clock start
	Elapsed        float64   // screening wall time, seconds
	ThresholdKm    float64
	Duration       float64 // screened window length, seconds
	Objects        int     // population size
	Incremental    bool    // true when produced by the delta path
	Variant        string  // detector variant ("grid", "hybrid", ...)
	Conjunctions   []core.Conjunction
}

// Query selects conjunctions across runs: the conjunction filter, plus a
// run and a page.
type Query struct {
	core.Filter
	Run    uint64 // restrict to one run ID
	HasRun bool   // (IDs start at 1, so 0 names no run)
	Offset int    // matches skipped before the first returned
	Limit  int    // cap on returned matches (<= 0 = unlimited)
}

// Match is one conjunction qualified by the run that produced it.
type Match struct {
	RunID uint64
	core.Conjunction
}

// Store is an append-only run log plus its in-memory index. Safe for
// concurrent use.
type Store struct {
	mu     sync.RWMutex
	f      *os.File
	path   string
	nextID uint64
	runs   []Run // index order == log order == ascending ID
}

// Open opens (or creates) the store in dir, scanning the log to rebuild
// the index. A torn or corrupt tail — the signature of a crash during an
// append — is truncated away; everything before it is served. Corruption
// *before* the last record is reported as an error rather than silently
// dropped, since it means lost history, not an interrupted write.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open log: %w", err)
	}
	s := &Store{f: f, path: path, nextID: 1}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// recover scans the log from the start, indexing every intact record and
// truncating the file at the first damaged one (which must be the tail).
func (s *Store) recover() error {
	data, err := io.ReadAll(s.f)
	if err != nil {
		return fmt.Errorf("store: read log: %w", err)
	}
	off := 0
	for off < len(data) {
		rec, n, ok := decodeRecord(data[off:])
		if !ok {
			break
		}
		s.runs = append(s.runs, rec)
		if rec.ID >= s.nextID {
			s.nextID = rec.ID + 1
		}
		off += n
	}
	if off < len(data) {
		// Damage. Acceptable only as a torn tail: nothing after the cut may
		// look like the start of another intact record.
		rest := data[off:]
		for probe := 1; probe < len(rest); probe++ {
			if _, _, ok := decodeRecord(rest[probe:]); ok {
				return fmt.Errorf("store: corrupt record at offset %d with intact records after it", off)
			}
		}
		if err := s.f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: sync after truncate: %w", err)
		}
	}
	if _, err := s.f.Seek(int64(off), io.SeekStart); err != nil {
		return fmt.Errorf("store: seek: %w", err)
	}
	return nil
}

// decodeRecord parses one record from the front of b. n is the total
// bytes consumed. ok is false when b does not start with an intact record.
func decodeRecord(b []byte) (rec Run, n int, ok bool) {
	if len(b) < headerSize {
		return Run{}, 0, false
	}
	if [4]byte(b[:4]) != logMagic {
		return Run{}, 0, false
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[4:8]))
	if payloadLen < 0 || payloadLen > maxPayloadSize || headerSize+payloadLen > len(b) {
		return Run{}, 0, false
	}
	crc := binary.LittleEndian.Uint32(b[8:12])
	payload := b[headerSize : headerSize+payloadLen]
	if crc32.ChecksumIEEE(payload) != crc {
		return Run{}, 0, false
	}
	rec, ok = decodePayload(payload)
	if !ok {
		return Run{}, 0, false
	}
	return rec, headerSize + payloadLen, true
}

func decodePayload(p []byte) (Run, bool) {
	const fixed = 8 + 8 + 8 + 8 + 8 + 8 + 4 + 1 + 1
	if len(p) < fixed {
		return Run{}, false
	}
	var r Run
	r.ID = binary.LittleEndian.Uint64(p[0:])
	r.CatalogVersion = binary.LittleEndian.Uint64(p[8:])
	r.StartedAt = time.Unix(0, int64(binary.LittleEndian.Uint64(p[16:]))).UTC()
	r.Elapsed = math.Float64frombits(binary.LittleEndian.Uint64(p[24:]))
	r.ThresholdKm = math.Float64frombits(binary.LittleEndian.Uint64(p[32:]))
	r.Duration = math.Float64frombits(binary.LittleEndian.Uint64(p[40:]))
	r.Objects = int(binary.LittleEndian.Uint32(p[48:]))
	r.Incremental = p[52] != 0
	vlen := int(p[53])
	p = p[fixed:]
	if len(p) < vlen+4 {
		return Run{}, false
	}
	r.Variant = string(p[:vlen])
	p = p[vlen:]
	nconj := int(binary.LittleEndian.Uint32(p[0:]))
	p = p[4:]
	if nconj < 0 || len(p) != nconj*conjSize {
		return Run{}, false
	}
	if nconj > 0 {
		r.Conjunctions = make([]core.Conjunction, nconj)
		for i := range r.Conjunctions {
			q := p[i*conjSize:]
			r.Conjunctions[i] = core.Conjunction{
				A:    int32(binary.LittleEndian.Uint32(q[0:])),
				B:    int32(binary.LittleEndian.Uint32(q[4:])),
				Step: binary.LittleEndian.Uint32(q[8:]),
				TCA:  math.Float64frombits(binary.LittleEndian.Uint64(q[12:])),
				PCA:  math.Float64frombits(binary.LittleEndian.Uint64(q[20:])),
			}
		}
	}
	return r, true
}

func encodeRecord(r Run) []byte {
	vb := []byte(r.Variant)
	if len(vb) > 255 {
		vb = vb[:255]
	}
	payloadLen := 8 + 8 + 8 + 8 + 8 + 8 + 4 + 1 + 1 + len(vb) + 4 + len(r.Conjunctions)*conjSize
	buf := make([]byte, headerSize+payloadLen)
	copy(buf[0:4], logMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], uint32(payloadLen))
	p := buf[headerSize:]
	binary.LittleEndian.PutUint64(p[0:], r.ID)
	binary.LittleEndian.PutUint64(p[8:], r.CatalogVersion)
	binary.LittleEndian.PutUint64(p[16:], uint64(r.StartedAt.UnixNano()))
	binary.LittleEndian.PutUint64(p[24:], math.Float64bits(r.Elapsed))
	binary.LittleEndian.PutUint64(p[32:], math.Float64bits(r.ThresholdKm))
	binary.LittleEndian.PutUint64(p[40:], math.Float64bits(r.Duration))
	binary.LittleEndian.PutUint32(p[48:], uint32(r.Objects))
	if r.Incremental {
		p[52] = 1
	}
	p[53] = byte(len(vb))
	copy(p[54:], vb)
	q := p[54+len(vb):]
	binary.LittleEndian.PutUint32(q[0:], uint32(len(r.Conjunctions)))
	q = q[4:]
	for i, c := range r.Conjunctions {
		o := q[i*conjSize:]
		binary.LittleEndian.PutUint32(o[0:], uint32(c.A))
		binary.LittleEndian.PutUint32(o[4:], uint32(c.B))
		binary.LittleEndian.PutUint32(o[8:], c.Step)
		binary.LittleEndian.PutUint64(o[12:], math.Float64bits(c.TCA))
		binary.LittleEndian.PutUint64(o[20:], math.Float64bits(c.PCA))
	}
	binary.LittleEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(buf[headerSize:]))
	return buf
}

// Append persists one run, assigning and returning its ID. The record is
// fsynced before Append returns: once a run ID is handed out, a hard kill
// must not lose it. The input's ID field is ignored.
func (s *Store) Append(r Run) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, errors.New("store: closed")
	}
	r.ID = s.nextID
	if r.StartedAt.IsZero() {
		r.StartedAt = time.Now().UTC()
	}
	buf := encodeRecord(r)
	if _, err := s.f.Write(buf); err != nil {
		return 0, fmt.Errorf("store: append run %d: %w", r.ID, err)
	}
	if err := s.f.Sync(); err != nil {
		return 0, fmt.Errorf("store: sync run %d: %w", r.ID, err)
	}
	s.nextID++
	// Decouple the index from caller-held slices.
	r.Conjunctions = append([]core.Conjunction(nil), r.Conjunctions...)
	s.runs = append(s.runs, r)
	return r.ID, nil
}

// Runs returns the persisted run headers (conjunction payloads stripped),
// newest first, capped at limit (<= 0 = all).
func (s *Store) Runs(limit int) []Run {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.runs)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]Run, 0, n)
	for i := len(s.runs) - 1; i >= 0 && len(out) < n; i-- {
		r := s.runs[i]
		r.Conjunctions = nil
		out = append(out, r)
	}
	return out
}

// Run returns one run with its full conjunction list.
func (s *Store) Run(id uint64) (Run, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// IDs are appended in ascending order; binary search.
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].ID >= id })
	if i < len(s.runs) && s.runs[i].ID == id {
		r := s.runs[i]
		r.Conjunctions = append([]core.Conjunction(nil), r.Conjunctions...)
		return r, true
	}
	return Run{}, false
}

// Len reports the number of persisted runs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.runs)
}

// Query returns conjunctions matching q, in log order (run ID ascending,
// then record order within a run).
func (s *Store) Query(q Query) []Match {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Match
	skip := q.Offset
	for i := range s.runs {
		r := &s.runs[i]
		if q.HasRun && r.ID != q.Run {
			continue
		}
		for _, c := range r.Conjunctions {
			if !q.Match(c) {
				continue
			}
			if skip > 0 {
				skip--
				continue
			}
			out = append(out, Match{RunID: r.ID, Conjunction: c})
			if q.Limit > 0 && len(out) >= q.Limit {
				return out
			}
		}
	}
	return out
}

// Close syncs and closes the log. The store rejects appends afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// Path returns the on-disk log path (for diagnostics and tests).
func (s *Store) Path() string { return s.path }
