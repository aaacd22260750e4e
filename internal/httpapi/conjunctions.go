package httpapi

// GET /v1/conjunctions serves the live conjunction set from the published
// snapshot (internal/serve) when continuous rescreening has produced one:
// an immutable, atomically swapped view, so cached reads revalidate with
// ETag/If-None-Match (or Last-Modified/If-Modified-Since) and never touch
// screening data structures or take the store lock. Queries naming a
// specific run — and servers that have never published a snapshot — fall
// back to the persisted store (internal/store), so run history stays
// queryable across restarts exactly as before.

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// StoredRunJSON is one persisted run header as served in /v1/runs history.
type StoredRunJSON struct {
	ID             uint64    `json:"id"`
	CatalogVersion uint64    `json:"catalog_version,omitempty"`
	StartedAt      time.Time `json:"started_at"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	ThresholdKm    float64   `json:"threshold_km"`
	Duration       float64   `json:"duration_seconds"`
	Objects        int       `json:"objects"`
	Incremental    bool      `json:"incremental"`
	Variant        string    `json:"variant"`
}

func storedRunJSON(r store.Run) StoredRunJSON {
	return StoredRunJSON{
		ID:             r.ID,
		CatalogVersion: r.CatalogVersion,
		StartedAt:      r.StartedAt,
		ElapsedSeconds: r.Elapsed,
		ThresholdKm:    r.ThresholdKm,
		Duration:       r.Duration,
		Objects:        r.Objects,
		Incremental:    r.Incremental,
		Variant:        r.Variant,
	}
}

// StoredConjunctionJSON is one match from the store-backed query path.
type StoredConjunctionJSON struct {
	RunID uint64  `json:"run_id"`
	A     int32   `json:"a"`
	B     int32   `json:"b"`
	TCA   float64 `json:"tca_seconds"`
	PCA   float64 `json:"pca_km"`
}

// ConjunctionsResponse is the store-backed GET /v1/conjunctions reply.
type ConjunctionsResponse struct {
	Matches []StoredConjunctionJSON `json:"matches"`
}

// SnapshotConjunctionsResponse is the snapshot-backed GET /v1/conjunctions
// reply: the live conjunction set at one catalogue version, paged.
type SnapshotConjunctionsResponse struct {
	Version        uint64            `json:"version"`
	Epoch          time.Time         `json:"epoch"`
	ProducedAt     time.Time         `json:"produced_at"`
	Incremental    bool              `json:"incremental,omitempty"`
	Objects        int               `json:"objects"`
	Total          int               `json:"total"`
	Offset         int               `json:"offset"`
	Limit          int               `json:"limit"`
	Matches        []ConjunctionJSON `json:"matches"`
	ETag           string            `json:"etag"`
	NextOffset     int               `json:"next_offset,omitempty"`
	RemainingCount int               `json:"remaining,omitempty"`
}

// defaultQueryLimit bounds an unparameterised /v1/conjunctions sweep;
// maxQueryLimit is the largest page a client may request explicitly, so
// no single response body is unbounded in the conjunction count.
const (
	defaultQueryLimit = 1000
	maxQueryLimit     = 10000
)

// conjQuery is the validated query surface of GET /v1/conjunctions.
type conjQuery struct {
	store.Query // run/object/tca/max_pca + offset/limit, for the store and the snapshot path alike

	since uint64
}

// parseConjQuery validates every query parameter up front. Malformed
// filter values answer 400 (the request is not well-formed); out-of-range
// paging values — syntactically fine but unservable — answer 422, so
// clients can tell "fix your URL" from "fix your page size".
func (h *Handler) parseConjQuery(w http.ResponseWriter, r *http.Request) (conjQuery, bool) {
	q := conjQuery{}
	q.Limit = defaultQueryLimit
	vals := r.URL.Query()
	var err error
	if s := vals.Get("run"); s != "" {
		if q.Run, err = strconv.ParseUint(s, 10, 64); err != nil {
			badQueryParam(w, "run", s)
			return q, false
		}
		q.HasRun = true
	}
	if s := vals.Get("object"); s != "" {
		id, perr := strconv.ParseInt(s, 10, 32)
		if perr != nil {
			badQueryParam(w, "object", s)
			return q, false
		}
		q.Object, q.HasObject = int32(id), true
	}
	if s := vals.Get("tca_min"); s != "" {
		if q.TCAMin, err = strconv.ParseFloat(s, 64); err != nil || math.IsNaN(q.TCAMin) {
			badQueryParam(w, "tca_min", s)
			return q, false
		}
		q.HasTCAMin = true
	}
	if s := vals.Get("tca_max"); s != "" {
		if q.TCAMax, err = strconv.ParseFloat(s, 64); err != nil || math.IsNaN(q.TCAMax) {
			badQueryParam(w, "tca_max", s)
			return q, false
		}
		q.HasTCAMax = true
	}
	if s := vals.Get("max_pca_km"); s != "" {
		if q.MaxPCAKm, err = strconv.ParseFloat(s, 64); err != nil || math.IsNaN(q.MaxPCAKm) {
			badQueryParam(w, "max_pca_km", s)
			return q, false
		}
		q.HasMaxPCA = true
	}
	if s := vals.Get("limit"); s != "" {
		n, perr := strconv.Atoi(s)
		if perr != nil || n <= 0 || n > maxQueryLimit {
			unprocessableParam(w, "limit", s, fmt.Sprintf("want an integer in [1, %d]", maxQueryLimit))
			return q, false
		}
		q.Limit = n
	}
	if s := vals.Get("offset"); s != "" {
		n, perr := strconv.Atoi(s)
		if perr != nil || n < 0 {
			unprocessableParam(w, "offset", s, "want a non-negative integer")
			return q, false
		}
		q.Offset = n
	}
	if s := vals.Get("since_version"); s != "" {
		v, perr := strconv.ParseUint(s, 10, 64)
		if perr != nil {
			unprocessableParam(w, "since_version", s, "want a non-negative integer")
			return q, false
		}
		q.since = v
	}
	return q, true
}

// queryConjunctions serves GET /v1/conjunctions. Query parameters: run,
// object, tca_min, tca_max, max_pca_km, limit, offset, since_version —
// all optional, combined with AND.
func (h *Handler) queryConjunctions(w http.ResponseWriter, r *http.Request) {
	// Fast path: the common cached poll is parameterless, so skip the
	// url.Values work entirely when there is no query string.
	var q conjQuery
	if r.URL.RawQuery != "" {
		var ok bool
		if q, ok = h.parseConjQuery(w, r); !ok {
			return
		}
	} else {
		q.Limit = defaultQueryLimit
	}

	snap := h.hub.Current()
	if q.HasRun || snap == nil {
		h.queryStoreConjunctions(w, q)
		return
	}
	h.serveSnapshot(w, r, snap, q)
}

// snapHeaders caches one snapshot's rendered response headers: formatting
// Last-Modified and the version costs more than the whole rest of the 304
// path, and every reader of one snapshot shares identical values. The
// slices are stored into response header maps directly and must never be
// mutated.
type snapHeaders struct {
	snap    *serve.Snapshot
	etag    []string
	lastMod []string
	version []string
}

var headerNoCache = []string{"no-cache"}

// snapshotHeaders returns the cached header values for snap, rebuilding
// the cache on the first read after a publish. Concurrent rebuilds are
// benign — the entries are identical.
func (h *Handler) snapshotHeaders(snap *serve.Snapshot) *snapHeaders {
	if hc := h.hdrCache.Load(); hc != nil && hc.snap == snap {
		return hc
	}
	hc := &snapHeaders{
		snap:    snap,
		etag:    []string{snap.ETag},
		lastMod: []string{snap.ProducedAt.UTC().Format(http.TimeFormat)},
		version: []string{strconv.FormatUint(snap.Version, 10)},
	}
	h.hdrCache.Store(hc)
	return hc
}

// serveSnapshot answers from the immutable published snapshot. The
// revalidation path — the overwhelmingly common one for polling readers —
// does no filtering, no allocation, and never touches the catalogue,
// store, or screening structures.
func (h *Handler) serveSnapshot(w http.ResponseWriter, r *http.Request, snap *serve.Snapshot, q conjQuery) {
	hc := h.snapshotHeaders(snap)
	hdr := w.Header()
	// Direct assignment with pre-canonicalized keys: Set would re-verify
	// canonical form and allocate a fresh value slice per request.
	hdr["Etag"] = hc.etag
	hdr["Last-Modified"] = hc.lastMod
	hdr["Cache-Control"] = headerNoCache // revalidate every time, 304s are cheap
	hdr["X-Catalog-Version"] = hc.version

	if q.since > 0 && snap.Version <= q.since {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		if etagMatches(inm, snap.ETag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	} else if ims := r.Header.Get("If-Modified-Since"); ims != "" {
		if t, err := http.ParseTime(ims); err == nil && !snap.ProducedAt.Truncate(time.Second).After(t) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}

	page, total := snap.Select(q.Filter, q.Offset, q.Limit)
	out := SnapshotConjunctionsResponse{
		Version:     snap.Version,
		Epoch:       snap.Epoch,
		ProducedAt:  snap.ProducedAt,
		Incremental: snap.Incremental,
		Objects:     snap.Objects,
		Total:       total,
		Offset:      q.Offset,
		Limit:       q.Limit,
		Matches:     make([]ConjunctionJSON, len(page)),
		ETag:        snap.ETag,
	}
	for i, c := range page {
		out.Matches[i] = ConjunctionJSON{A: c.A, B: c.B, TCA: c.TCA, PCA: c.PCA}
	}
	if rest := total - q.Offset - len(page); rest > 0 {
		out.NextOffset = q.Offset + len(page)
		out.RemainingCount = rest
	}
	writeJSON(w, http.StatusOK, out)
}

// queryStoreConjunctions is the persisted-history path (and the only path
// on servers that never rescreen).
func (h *Handler) queryStoreConjunctions(w http.ResponseWriter, q conjQuery) {
	if h.store == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "no store attached (start the server with -store-dir to persist runs) and no snapshot published yet"})
		return
	}
	matches := h.store.Query(q.Query)
	out := ConjunctionsResponse{Matches: make([]StoredConjunctionJSON, len(matches))}
	for i, m := range matches {
		out.Matches[i] = StoredConjunctionJSON{RunID: m.RunID, A: m.A, B: m.B, TCA: m.TCA, PCA: m.PCA}
	}
	writeJSON(w, http.StatusOK, out)
}

// etagMatches implements the If-None-Match comparison: a `*` wildcard or
// any member of the comma-separated candidate list equal to etag (weak
// prefixes tolerated, per RFC 9110's weak comparison for If-None-Match).
func etagMatches(header, etag string) bool {
	if header == "*" {
		return true
	}
	for len(header) > 0 {
		// Split on commas without allocating.
		i := 0
		for i < len(header) && header[i] != ',' {
			i++
		}
		candidate := trimSpaces(header[:i])
		if len(candidate) > 2 && candidate[0] == 'W' && candidate[1] == '/' {
			candidate = candidate[2:]
		}
		if candidate == etag {
			return true
		}
		if i >= len(header) {
			break
		}
		header = header[i+1:]
	}
	return false
}

func trimSpaces(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

func badQueryParam(w http.ResponseWriter, name, val string) {
	writeJSON(w, http.StatusBadRequest, errorJSON{Error: fmt.Sprintf("bad query parameter %s=%q", name, val)})
}

func unprocessableParam(w http.ResponseWriter, name, val, want string) {
	writeJSON(w, http.StatusUnprocessableEntity, errorJSON{Error: fmt.Sprintf("bad query parameter %s=%q: %s", name, val, want)})
}
