package httpapi

// POST /v1/screen/stream: the streaming form of /v1/screen. The reply is
// NDJSON (application/x-ndjson), one event object per line, flushed as the
// run progresses — conjunctions arrive while the screening is still in
// flight, through the core Sink, instead of after the full set materialises.
// The run is cancelled through the context plumbing when the client
// disconnects or the request's timeout_seconds deadline passes.

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	satconj "repro"
)

// StreamEvent is one NDJSON line of the /v1/screen/stream reply. Type
// selects which fields are populated:
//
//   - "start":       run_id, variant, objects
//   - "progress":    step, steps, completed, pairs (one per sampled step,
//     thinned to ~100 lines for long runs)
//   - "phase":       phase, elapsed_seconds, pairs (end of each pipeline
//     phase: allocate, sample and refine on grid, with filter before
//     refine on hybrid; none on the legacy baseline — see
//     core.Phase)
//   - "conjunction": conjunction (as refinement confirms it; unordered)
//   - "result":      result (the run summary; its conjunction list is
//     omitted — the events above already carried every one)
//   - "error":       error (terminal; e.g. cancellation or a bad population)
type StreamEvent struct {
	Type           string           `json:"type"`
	RunID          string           `json:"run_id,omitempty"`
	Variant        string           `json:"variant,omitempty"`
	Objects        int              `json:"objects,omitempty"`
	Step           int              `json:"step,omitempty"`
	Steps          int              `json:"steps,omitempty"`
	Completed      int              `json:"completed,omitempty"`
	Pairs          int              `json:"pairs,omitempty"`
	Phase          string           `json:"phase,omitempty"`
	ElapsedSeconds float64          `json:"elapsed_seconds,omitempty"`
	Conjunction    *ConjunctionJSON `json:"conjunction,omitempty"`
	Result         *ScreenResponse  `json:"result,omitempty"`
	Error          string           `json:"error,omitempty"`
}

// streamWriter serialises NDJSON event lines onto the response. The Sink
// and Observer each serialise their own calls, but they run on different
// pipeline goroutines, so the writer needs its own mutex. Write errors
// (client gone) are swallowed — the run context's cancellation, not the
// writer, is what stops the pipeline.
type streamWriter struct {
	mu sync.Mutex
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (s *streamWriter) send(ev StreamEvent) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(b); err != nil {
		return
	}
	_ = s.rc.Flush() //lint:errfull-ok — flush failure means the client left; ctx handles it
}

func (h *Handler) screenStream(w http.ResponseWriter, r *http.Request) {
	req, sats, opts, ok := h.prepareScreen(w, r)
	if !ok {
		return
	}
	ctx, cancel := screenContext(r, req)
	defer cancel()

	entry := h.runs.start(string(opts.Variant), len(sats))
	regObs := entry.observer()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	sw := &streamWriter{w: w, rc: http.NewResponseController(w)}
	runID := entry.snapshot(time.Now()).ID
	sw.send(StreamEvent{Type: "start", RunID: runID, Variant: string(opts.Variant), Objects: len(sats)})

	opts.Observer = satconj.ObserverFuncs{
		Step: func(s satconj.StepInfo) {
			// This closure IS the Observer the pipeline serialises under its
			// obsMu; the registry fan-out inherits that guarantee.
			regObs.OnStep(s) //lint:sinklock-ok serialisation inherited from the pipeline's obsMu around this Observer
			// Thin long runs to ~100 progress lines; the first and last
			// step always emit.
			every := s.Steps / 100
			if every < 1 {
				every = 1
			}
			if (s.Completed-1)%every == 0 || s.Completed == s.Steps {
				sw.send(StreamEvent{Type: "progress", Step: s.Step, Steps: s.Steps, Completed: s.Completed, Pairs: s.Candidates})
			}
		},
		Phase: func(p satconj.PhaseInfo) {
			regObs.OnPhase(p) //lint:sinklock-ok serialisation inherited from the pipeline's obsMu around this Observer
			sw.send(StreamEvent{Type: "phase", Phase: string(p.Phase), ElapsedSeconds: p.Elapsed.Seconds(), Pairs: p.Candidates})
		},
	}
	opts.Sink = satconj.SinkFunc(func(c satconj.Conjunction) {
		cj := h.conjunctionJSON(c, req)
		sw.send(StreamEvent{Type: "conjunction", Conjunction: &cj})
	})

	start := time.Now()
	res, err := satconj.ScreenContext(ctx, sats, opts)
	if err != nil {
		h.runs.fail(entry, err)
		sw.send(StreamEvent{Type: "error", RunID: runID, Error: err.Error()})
		return
	}
	h.runs.finish(entry, RunCompleted, len(res.Conjunctions), "")
	summary := &ScreenResponse{
		Variant:           string(res.Variant),
		Backend:           res.Backend,
		Objects:           len(sats),
		UniquePairs:       res.UniquePairs(),
		CandidatePairs:    res.Stats.CandidatePairs,
		PrefilterRejected: res.Stats.PrefilterRejected,
		Refinements:       res.Stats.Refinements,
		ElapsedSeconds:    time.Since(start).Seconds(),
	}
	sw.send(StreamEvent{Type: "result", RunID: runID, Result: summary})
}
