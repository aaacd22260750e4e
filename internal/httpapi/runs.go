package httpapi

// The run registry backs GET /v1/runs: every screening request — blocking
// or streaming — registers itself, publishes in-flight progress through the
// core Observer hooks, and remains visible for a while after it finishes so
// operators (and tests) can see how runs ended: completed, cancelled by the
// client, deadline-exceeded, or failed.

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	satconj "repro"
)

// RunStatus is a registry entry's lifecycle state.
type RunStatus string

// The run states reported by GET /v1/runs.
const (
	RunRunning   RunStatus = "running"
	RunCompleted RunStatus = "completed"
	RunCancelled RunStatus = "cancelled" // client disconnect or request deadline
	RunFailed    RunStatus = "failed"
)

// RunInfo is one run's progress snapshot as served by GET /v1/runs.
type RunInfo struct {
	ID             string     `json:"id"`
	Variant        string     `json:"variant"`
	Objects        int        `json:"objects"`
	Status         RunStatus  `json:"status"`
	StartedAt      time.Time  `json:"started_at"`
	FinishedAt     *time.Time `json:"finished_at,omitempty"`
	Phase          string     `json:"phase,omitempty"`
	StepsDone      int        `json:"steps_done"`
	StepsTotal     int        `json:"steps_total"`
	CandidatePairs int        `json:"candidate_pairs"`
	Conjunctions   int        `json:"conjunctions"`
	Error          string     `json:"error,omitempty"`
	ElapsedSeconds float64    `json:"elapsed_seconds"`
	// Rescreen passes: objects whose cells were read from the session's key
	// track instead of solved, the track's size, and why it was dropped before
	// this pass (satconj.PhaseStats) — a slow pass explains itself here.
	TrackedObjects int    `json:"tracked_objects,omitempty"`
	TrackBytes     int    `json:"track_bytes,omitempty"`
	TrackDropped   string `json:"track_dropped,omitempty"`
}

// runEntry is one registered run; info is guarded by mu because the
// pipeline's observer goroutines update it while /v1/runs snapshots it.
type runEntry struct {
	mu   sync.Mutex
	info RunInfo
}

// observer returns the Observer that publishes the run's pipeline progress
// into the registry entry.
func (e *runEntry) observer() satconj.Observer {
	return satconj.ObserverFuncs{
		Step: func(s satconj.StepInfo) {
			e.mu.Lock()
			e.info.StepsDone = s.Completed
			e.info.StepsTotal = s.Steps
			e.info.CandidatePairs = s.Candidates
			e.mu.Unlock()
		},
		Phase: func(p satconj.PhaseInfo) {
			e.mu.Lock()
			e.info.Phase = string(p.Phase)
			if p.Candidates > 0 {
				e.info.CandidatePairs = p.Candidates
			}
			if p.Phase == satconj.PhaseRefine {
				e.info.Conjunctions = p.Conjunctions
			}
			e.mu.Unlock()
		},
	}
}

// recordTrack publishes a finished rescreen pass's key-track counters.
func (e *runEntry) recordTrack(st satconj.PhaseStats) {
	e.mu.Lock()
	e.info.TrackedObjects, e.info.TrackBytes, e.info.TrackDropped = st.TrackedObjects, st.TrackBytes, st.TrackDropped
	e.mu.Unlock()
}

// snapshot copies the entry for serving, computing the elapsed time against
// now for still-running entries.
func (e *runEntry) snapshot(now time.Time) RunInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	info := e.info
	end := now
	if info.FinishedAt != nil {
		end = *info.FinishedAt
	}
	info.ElapsedSeconds = end.Sub(info.StartedAt).Seconds()
	return info
}

// defaultRecentRuns is the /v1/runs retention cap when the server is not
// configured with an explicit one (Config.RecentRuns).
const defaultRecentRuns = 32

// runRegistry tracks in-flight runs plus a bounded ring of finished ones.
type runRegistry struct {
	mu     sync.Mutex
	cap    int // finished-run retention; fixed at construction
	nextID int64
	active map[string]*runEntry
	recent []*runEntry // oldest first, capped at cap
}

func newRunRegistry(recentCap int) *runRegistry {
	if recentCap <= 0 {
		recentCap = defaultRecentRuns
	}
	return &runRegistry{cap: recentCap, active: make(map[string]*runEntry)}
}

// start registers a new running entry.
func (g *runRegistry) start(variant string, objects int) *runEntry {
	g.mu.Lock()
	g.nextID++
	e := &runEntry{info: RunInfo{
		ID:        "run-" + strconv.FormatInt(g.nextID, 10),
		Variant:   variant,
		Objects:   objects,
		Status:    RunRunning,
		StartedAt: time.Now(),
	}}
	g.active[e.info.ID] = e
	g.mu.Unlock()
	return e
}

// fail seals a run that ended in err: cancelled when its context was
// cancelled or ran out of time (a client gone, a request deadline, a
// shutdown), failed otherwise.
func (g *runRegistry) fail(e *runEntry, err error) {
	status := RunFailed
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		status = RunCancelled
	}
	g.finish(e, status, -1, err.Error())
}

// finish seals the entry and moves it from active to the recent ring.
// conjunctions < 0 keeps whatever count the observer last published.
func (g *runRegistry) finish(e *runEntry, status RunStatus, conjunctions int, errMsg string) {
	now := time.Now()
	e.mu.Lock()
	e.info.Status = status
	e.info.FinishedAt = &now
	if conjunctions >= 0 {
		e.info.Conjunctions = conjunctions
	}
	e.info.Error = errMsg
	id := e.info.ID
	e.mu.Unlock()

	g.mu.Lock()
	delete(g.active, id)
	g.recent = append(g.recent, e)
	if len(g.recent) > g.cap {
		g.recent = g.recent[len(g.recent)-g.cap:]
	}
	g.mu.Unlock()
}

// list snapshots every visible run: in-flight first (by ID), then finished,
// newest first.
func (g *runRegistry) list() []RunInfo {
	now := time.Now()
	g.mu.Lock()
	entries := make([]*runEntry, 0, len(g.active)+len(g.recent))
	for _, e := range g.active {
		entries = append(entries, e)
	}
	for i := len(g.recent) - 1; i >= 0; i-- {
		entries = append(entries, g.recent[i])
	}
	g.mu.Unlock()

	out := make([]RunInfo, len(entries))
	for i, e := range entries {
		out[i] = e.snapshot(now)
	}
	// Running entries first, each group newest-first (IDs are monotonic).
	sortRunInfos(out)
	return out
}

// sortRunInfos orders running before finished, then by descending ID.
func sortRunInfos(infos []RunInfo) {
	idNum := func(id string) int64 {
		n, _ := strconv.ParseInt(id[len("run-"):], 10, 64) //lint:errfull-ok — registry IDs are self-generated
		return n
	}
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0; j-- {
			a, b := &infos[j-1], &infos[j]
			aRun, bRun := a.Status == RunRunning, b.Status == RunRunning
			if aRun == bRun && idNum(a.ID) >= idNum(b.ID) {
				break
			}
			if aRun && !bRun {
				break
			}
			*a, *b = *b, *a
		}
	}
}

// RunsResponse is the GET /v1/runs reply. History lists persisted run
// headers (newest first) when a store is attached — unlike Runs, these
// survive a server restart.
type RunsResponse struct {
	Runs    []RunInfo       `json:"runs"`
	History []StoredRunJSON `json:"history,omitempty"`
}

// listRuns serves GET /v1/runs.
func (h *Handler) listRuns(w http.ResponseWriter, _ *http.Request) {
	resp := RunsResponse{Runs: h.runs.list()}
	if h.store != nil {
		persisted := h.store.Runs(h.runs.cap)
		resp.History = make([]StoredRunJSON, len(persisted))
		for i, r := range persisted {
			resp.History[i] = storedRunJSON(r)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
