package httpapi

// GET /v1/subscribe — per-object conjunction alerting over the fan-out
// hub. Two consumption modes share one validation path:
//
//   - SSE (default): a text/event-stream held open for the life of the
//     subscription. Events: "hello" (current snapshot version, once),
//     "conjunction" (one per fresh conjunction involving the object),
//     "replay-truncated" (the replay=1 bootstrap hit its cap; page
//     /v1/conjunctions for the rest), "evicted" (the hub dropped this
//     consumer for falling behind — the client should reconnect and
//     re-read /v1/conjunctions), and "bye" (the server is draining).
//     Keepalive comments flow between events so idle connections survive
//     proxies.
//   - Long-poll (mode=poll): blocks until the snapshot version exceeds
//     since_version (or timeout_seconds passes), then returns the
//     object's current matches — the fallback for clients that cannot
//     hold a stream open.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// SubscribeEventJSON is the data payload of an SSE "conjunction" event and
// the per-match shape reused by the hello/replay path.
type SubscribeEventJSON struct {
	Version uint64  `json:"version"`
	Object  int32   `json:"object"`
	A       int32   `json:"a"`
	B       int32   `json:"b"`
	TCA     float64 `json:"tca_seconds"`
	PCA     float64 `json:"pca_km"`
}

// ReplayTruncatedJSON is the data payload of the SSE "replay-truncated"
// event: the replay=1 bootstrap stopped at Sent of Total matches, so the
// client should page GET /v1/conjunctions?object=... for the remainder.
type ReplayTruncatedJSON struct {
	Version uint64 `json:"version"`
	Sent    int    `json:"sent"`
	Total   int    `json:"total"`
}

// SubscribeHelloJSON is the data payload of the SSE "hello" event.
type SubscribeHelloJSON struct {
	Version     uint64  `json:"version"` // 0 before the first rescreen pass
	Object      int32   `json:"object"`
	MaxKm       float64 `json:"max_km,omitempty"`
	Subscribers int     `json:"subscribers"`
}

// PollResponse is the long-poll (mode=poll) reply. Matches is capped at
// defaultQueryLimit; Total always carries the full match count and
// Truncated flags a partial set, so a client with more matches than the
// cap knows to page through /v1/conjunctions (limit/offset) instead.
type PollResponse struct {
	Version    uint64            `json:"version"`
	ProducedAt *time.Time        `json:"produced_at,omitempty"`
	TimedOut   bool              `json:"timed_out,omitempty"`
	Draining   bool              `json:"draining,omitempty"`
	Total      int               `json:"total"`
	Truncated  bool              `json:"truncated,omitempty"`
	Matches    []ConjunctionJSON `json:"matches"`
}

// subscribeParams is the validated query surface of GET /v1/subscribe.
type subscribeParams struct {
	object  int32
	maxKm   float64 // 0 = unbounded
	replay  bool
	poll    bool
	since   uint64
	timeout time.Duration
}

// maxLongPollTimeout caps mode=poll waits so a fleet of pollers cannot
// pin connections for arbitrary spans.
const maxLongPollTimeout = 5 * time.Minute

func parseSubscribeParams(r *http.Request) (subscribeParams, error) {
	p := subscribeParams{timeout: 30 * time.Second}
	q := r.URL.Query()
	objStr := q.Get("object")
	if objStr == "" {
		return p, errors.New("subscribe requires an object query parameter")
	}
	id, err := strconv.ParseInt(objStr, 10, 32)
	if err != nil {
		return p, fmt.Errorf("bad object %q: not an int32 satellite ID", objStr)
	}
	p.object = int32(id)
	if s := q.Get("max_km"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(v) || v < 0 {
			return p, fmt.Errorf("bad max_km %q: want a non-negative number", s)
		}
		p.maxKm = v
	}
	p.replay = q.Get("replay") == "1" || q.Get("replay") == "true"
	p.poll = q.Get("mode") == "poll"
	if s := q.Get("mode"); s != "" && s != "poll" && s != "sse" {
		return p, fmt.Errorf("bad mode %q: want sse or poll", s)
	}
	if s := q.Get("since_version"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad since_version %q: want a non-negative integer", s)
		}
		p.since = v
	}
	if s := q.Get("timeout_seconds"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(v) || v <= 0 {
			return p, fmt.Errorf("bad timeout_seconds %q: want a positive number", s)
		}
		p.timeout = time.Duration(v * float64(time.Second))
		if p.timeout > maxLongPollTimeout {
			p.timeout = maxLongPollTimeout
		}
	}
	return p, nil
}

func (h *Handler) subscribe(w http.ResponseWriter, r *http.Request) {
	p, err := parseSubscribeParams(r)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorJSON{Error: err.Error()})
		return
	}
	if p.poll {
		h.longPoll(w, r, p)
		return
	}
	h.sse(w, r, p)
}

// longPoll waits for a snapshot past since_version, then answers with the
// object's current matches. Timeouts and drains answer 200 with the flag
// set rather than an error status: an empty poll is the steady state.
func (h *Handler) longPoll(w http.ResponseWriter, r *http.Request, p subscribeParams) {
	ctx, cancel := context.WithTimeout(r.Context(), p.timeout)
	defer cancel()
	snap, err := h.hub.WaitVersion(ctx, p.since)
	out := PollResponse{Matches: []ConjunctionJSON{}}
	switch {
	case errors.Is(err, serve.ErrHubClosed):
		out.Draining = true
	case err != nil:
		out.TimedOut = true
	}
	if snap != nil {
		out.Version = snap.Version
		t := snap.ProducedAt
		out.ProducedAt = &t
		if !out.TimedOut || snap.Version > p.since {
			f := core.Filter{Object: p.object, HasObject: true}
			if p.maxKm > 0 {
				f.MaxPCAKm, f.HasMaxPCA = p.maxKm, true
			}
			page, total := snap.Select(f, 0, defaultQueryLimit)
			for _, c := range page {
				out.Matches = append(out.Matches, ConjunctionJSON{A: c.A, B: c.B, TCA: c.TCA, PCA: c.PCA})
			}
			out.Total = total
			out.Truncated = total > len(page)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// sse holds the stream open, forwarding hub events until the client
// leaves, the hub evicts us, or the server drains.
func (h *Handler) sse(w http.ResponseWriter, r *http.Request, p subscribeParams) {
	sub, err := h.hub.Subscribe(p.object, p.maxKm)
	switch {
	case errors.Is(err, serve.ErrHubFull):
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusTooManyRequests, errorJSON{Error: "subscriber limit reached; retry later"})
		return
	case errors.Is(err, serve.ErrHubClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "server is draining"})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error()})
		return
	}
	defer sub.Close()

	rc := http.NewResponseController(w)
	hdr := w.Header()
	hdr.Set("Content-Type", "text/event-stream")
	hdr.Set("Cache-Control", "no-cache")
	hdr.Set("X-Accel-Buffering", "no") // disable proxy buffering (nginx)
	w.WriteHeader(http.StatusOK)

	snap := h.hub.Current()
	hello := SubscribeHelloJSON{Object: p.object, MaxKm: p.maxKm, Subscribers: h.hub.Stats().Subscribers}
	if snap != nil {
		hello.Version = snap.Version
	}
	if !writeSSE(w, rc, "hello", 0, hello) {
		return
	}
	// replay=1 delivers the object's matches from the current snapshot
	// before live events, so a reconnecting client needs no separate
	// /v1/conjunctions round trip to rebuild state.
	if p.replay && snap != nil {
		f := core.Filter{Object: p.object, HasObject: true}
		if p.maxKm > 0 {
			f.MaxPCAKm, f.HasMaxPCA = p.maxKm, true
		}
		page, total := snap.Select(f, 0, defaultQueryLimit)
		for _, c := range page {
			ev := SubscribeEventJSON{Version: snap.Version, Object: p.object, A: c.A, B: c.B, TCA: c.TCA, PCA: c.PCA}
			if !writeSSE(w, rc, "conjunction", snap.Version, ev) {
				return
			}
		}
		if total > len(page) {
			tr := ReplayTruncatedJSON{Version: snap.Version, Sent: len(page), Total: total}
			if !writeSSE(w, rc, "replay-truncated", snap.Version, tr) {
				return
			}
		}
	}

	heartbeat := time.NewTicker(h.heartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-sub.Events():
			if !ok {
				// Channel closed by the hub: eviction or drain. Either way
				// this is the last write; failures just end the stream.
				if sub.Evicted() {
					writeSSE(w, rc, "evicted", 0, errorJSON{Error: "event queue overflowed; reconnect and re-read /v1/conjunctions"})
				} else {
					writeSSE(w, rc, "bye", 0, errorJSON{Error: "server is draining"})
				}
				return
			}
			c := ev.Conjunction
			out := SubscribeEventJSON{Version: ev.Version, Object: p.object, A: c.A, B: c.B, TCA: c.TCA, PCA: c.PCA}
			if !writeSSE(w, rc, "conjunction", ev.Version, out) {
				return
			}
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		}
	}
}

// writeSSE emits one event frame and flushes it, reporting whether the
// client is still there. id 0 omits the id field.
func writeSSE(w http.ResponseWriter, rc *http.ResponseController, event string, id uint64, data any) bool {
	b, err := json.Marshal(data)
	if err != nil {
		return false
	}
	if id != 0 {
		if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", event, id, b); err != nil {
			return false
		}
	} else {
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b); err != nil {
			return false
		}
	}
	return rc.Flush() == nil
}
