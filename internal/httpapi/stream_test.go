package httpapi

// Tests for the streaming endpoint, the run registry, and request
// deadlines — the server-side face of the context-cancellation plumbing.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/pool"
)

// decodeStream parses an NDJSON reply into events.
func decodeStream(t *testing.T, body *bytes.Buffer) []StreamEvent {
	t.Helper()
	var evs []StreamEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// countTypes tallies events by type.
func countTypes(evs []StreamEvent) map[string]int {
	n := map[string]int{}
	for _, ev := range evs {
		n[ev.Type]++
	}
	return n
}

func TestScreenStreamEmitsNDJSON(t *testing.T) {
	h := NewServer(Config{})
	before := pool.Default.Stats().Outstanding()
	rec := doJSON(t, h, "POST", "/v1/screen/stream", ScreenRequest{
		Satellites:      crossingPairJSON(700),
		Variant:         "grid",
		ThresholdKm:     2,
		DurationSeconds: 1400,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	evs := decodeStream(t, rec.Body)
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	if evs[0].Type != "start" || evs[0].Objects != 2 || evs[0].RunID == "" {
		t.Errorf("first event = %+v, want start", evs[0])
	}
	if last := evs[len(evs)-1]; last.Type != "result" || last.Result == nil {
		t.Fatalf("last event = %+v, want result", evs[len(evs)-1])
	}
	n := countTypes(evs)
	if n["progress"] == 0 {
		t.Error("no progress events")
	}
	// The grid flags the same encounter at several adjacent sampling steps;
	// the sink streams every raw conjunction (merging is the caller's
	// choice), so at least one must arrive.
	if n["conjunction"] == 0 {
		t.Error("no conjunction events")
	}
	if n["phase"] == 0 {
		t.Error("no phase events")
	}
	// The conjunction must stream out before the terminal result event —
	// that is the point of the endpoint.
	var sawConj bool
	for _, ev := range evs {
		if ev.Type == "conjunction" {
			sawConj = true
			if ev.Conjunction == nil {
				t.Fatal("conjunction event without payload")
			}
		}
		if ev.Type == "result" && !sawConj {
			t.Error("result arrived before any conjunction")
		}
	}
	if out := pool.Default.Stats().Outstanding(); out != before {
		t.Errorf("pooled structures outstanding went %d -> %d", before, out)
	}

	// The registry remembers the finished run.
	rec = doJSON(t, h, "GET", "/v1/runs", nil)
	var runs RunsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs.Runs) == 0 {
		t.Fatal("no runs listed")
	}
	got := runs.Runs[0]
	if got.Status != RunCompleted || got.StepsDone == 0 {
		t.Errorf("run = %+v", got)
	}
	if got.Conjunctions != n["conjunction"] {
		t.Errorf("registry counts %d conjunctions, stream carried %d", got.Conjunctions, n["conjunction"])
	}
}

// disconnectWriter simulates a client that walks away mid-stream: after the
// first progress line is written it cancels the request context, exactly
// what net/http does when the peer closes the connection.
type disconnectWriter struct {
	*httptest.ResponseRecorder
	cancel    context.CancelFunc
	cancelled bool
}

func (d *disconnectWriter) Write(b []byte) (int, error) {
	n, err := d.ResponseRecorder.Write(b)
	if !d.cancelled && bytes.Contains(b, []byte(`"type":"progress"`)) {
		d.cancelled = true
		d.cancel()
	}
	return n, err
}

func TestScreenStreamClientDisconnectCancelsRun(t *testing.T) {
	h := NewServer(Config{})
	before := pool.Default.Stats().Outstanding()

	body := mustJSON(t, ScreenRequest{
		Generate:         &GenerateJSON{N: 150, Seed: 11},
		Variant:          "grid",
		ThresholdKm:      2,
		DurationSeconds:  900,
		SecondsPerSample: 1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest("POST", "/v1/screen/stream", strings.NewReader(body)).WithContext(ctx)
	rec := &disconnectWriter{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
	h.ServeHTTP(rec, req)

	if !rec.cancelled {
		t.Fatal("stream never emitted a progress line to disconnect on")
	}
	evs := decodeStream(t, rec.Body)
	n := countTypes(evs)
	if n["result"] != 0 {
		t.Errorf("cancelled run still produced a result event: %v", n)
	}
	if n["error"] != 1 {
		t.Errorf("error events = %d, want 1 (%v)", n["error"], n)
	}
	for _, ev := range evs {
		if ev.Type == "error" && !strings.Contains(ev.Error, "context canceled") {
			t.Errorf("error event = %q, want context cancellation", ev.Error)
		}
	}
	if out := pool.Default.Stats().Outstanding(); out != before {
		t.Errorf("pooled structures outstanding went %d -> %d", before, out)
	}

	// The registry records the cancellation.
	rr := doJSON(t, h, "GET", "/v1/runs", nil)
	var runs RunsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs.Runs) == 0 {
		t.Fatal("no runs listed")
	}
	if got := runs.Runs[0]; got.Status != RunCancelled {
		t.Errorf("run status = %q, want %q (%+v)", got.Status, RunCancelled, got)
	}
}

func TestScreenTimeoutSecondsDeadline(t *testing.T) {
	h := NewServer(Config{})
	before := pool.Default.Stats().Outstanding()
	rec := doJSON(t, h, "POST", "/v1/screen", ScreenRequest{
		Generate:         &GenerateJSON{N: 300, Seed: 3},
		Variant:          "grid",
		ThresholdKm:      2,
		DurationSeconds:  3600,
		SecondsPerSample: 1,
		TimeoutSeconds:   0.001,
	})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if out := pool.Default.Stats().Outstanding(); out != before {
		t.Errorf("pooled structures outstanding went %d -> %d", before, out)
	}
	rr := doJSON(t, h, "GET", "/v1/runs", nil)
	var runs RunsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs.Runs) == 0 || runs.Runs[0].Status != RunCancelled {
		t.Errorf("runs = %+v, want a cancelled entry first", runs.Runs)
	}
}

func TestNegativeTimeoutRejected(t *testing.T) {
	h := NewServer(Config{})
	rec := doJSON(t, h, "POST", "/v1/screen", ScreenRequest{
		Satellites:      crossingPairJSON(1),
		DurationSeconds: 10,
		TimeoutSeconds:  -1,
	})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("status %d, want 422", rec.Code)
	}
}

func TestRunsEndpointTracksBlockingScreens(t *testing.T) {
	h := NewServer(Config{})
	rec := doJSON(t, h, "POST", "/v1/screen", ScreenRequest{
		Satellites:      crossingPairJSON(300),
		Variant:         "grid",
		ThresholdKm:     2,
		DurationSeconds: 600,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("screen status %d: %s", rec.Code, rec.Body.String())
	}
	rr := doJSON(t, h, "GET", "/v1/runs", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("runs status %d", rr.Code)
	}
	var runs RunsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs.Runs))
	}
	got := runs.Runs[0]
	if got.Status != RunCompleted || got.Variant != "grid" || got.Objects != 2 {
		t.Errorf("run = %+v", got)
	}
	if got.StepsDone == 0 || got.StepsTotal == 0 || got.Conjunctions == 0 {
		t.Errorf("progress counters missing: %+v", got)
	}
	if got.FinishedAt == nil {
		t.Error("finished run lacks finished_at")
	}
}
