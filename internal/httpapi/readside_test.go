package httpapi

// Read-side subsystem tests: ETag revalidation against published
// snapshots, paging, /healthz staleness gating, admission control,
// /metrics exposition, SSE + long-poll subscriptions, drain with live
// subscribers, and nudge coalescing under an in-flight pass.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	satconj "repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

func rescreenOnce(t *testing.T, h *Handler, rs *Rescreener) {
	t.Helper()
	if !rs.RunOnce(context.Background()) {
		t.Fatal("pass did not screen")
	}
	if h.Snapshot() == nil {
		t.Fatal("pass did not publish a snapshot")
	}
}

func applyPair(t *testing.T, cat *catalog.Catalog, tMeet float64) {
	t.Helper()
	adds, err := toSatellites(crossingPairJSON(tMeet), "adds")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.ApplyDelta(catalog.Delta{Adds: adds}); err != nil {
		t.Fatal(err)
	}
}

func TestConjunctionsETagRevalidation(t *testing.T) {
	h, cat, _ := newContinuousHandler(t, t.TempDir())
	rs := NewRescreener(h, satconj.Options{Variant: satconj.VariantGrid, DurationSeconds: 1400, Workers: 2}, time.Hour, nil)
	rescreenOnce(t, h, rs) // v1: empty catalogue, empty snapshot

	rec := doJSON(t, h, "GET", "/v1/conjunctions", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("first read status %d: %s", rec.Code, rec.Body.String())
	}
	etag := rec.Header().Get("ETag")
	lastMod := rec.Header().Get("Last-Modified")
	if etag == "" || lastMod == "" {
		t.Fatalf("missing ETag (%q) or Last-Modified (%q)", etag, lastMod)
	}
	var first SnapshotConjunctionsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Version != 1 || first.Total != 0 || first.ETag != etag {
		t.Fatalf("first read = %+v", first)
	}

	// Revalidation: matching ETag answers 304 with no body.
	req := httptest.NewRequest("GET", "/v1/conjunctions", nil)
	req.Header.Set("If-None-Match", etag)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusNotModified || rec2.Body.Len() != 0 {
		t.Fatalf("revalidation: status %d, body %q", rec2.Code, rec2.Body.String())
	}
	// If-Modified-Since works the same way for header-only clients.
	req = httptest.NewRequest("GET", "/v1/conjunctions", nil)
	req.Header.Set("If-Modified-Since", lastMod)
	rec2 = httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusNotModified {
		t.Fatalf("If-Modified-Since revalidation: status %d", rec2.Code)
	}

	// since_version at (or past) the published version is also a 304.
	rec2 = doJSON(t, h, "GET", "/v1/conjunctions?since_version=1", nil)
	if rec2.Code != http.StatusNotModified {
		t.Fatalf("since_version=1: status %d", rec2.Code)
	}

	// A delta plus a rescreen invalidates: the old ETag now misses.
	applyPair(t, cat, 700)
	rescreenOnce(t, h, rs)
	req = httptest.NewRequest("GET", "/v1/conjunctions", nil)
	req.Header.Set("If-None-Match", etag)
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, req)
	if rec3.Code != http.StatusOK {
		t.Fatalf("post-delta conditional read: status %d", rec3.Code)
	}
	if newTag := rec3.Header().Get("ETag"); newTag == etag || newTag == "" {
		t.Fatalf("ETag did not rotate: %q", newTag)
	}
	var second SnapshotConjunctionsResponse
	if err := json.Unmarshal(rec3.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if second.Version != 2 || second.Total == 0 || len(second.Matches) != second.Total {
		t.Fatalf("post-delta read = %+v", second)
	}
	if v := rec3.Header().Get("X-Catalog-Version"); v != "2" {
		t.Fatalf("X-Catalog-Version = %q", v)
	}
	// And since_version=1 now returns the fresh body.
	if rec3 = doJSON(t, h, "GET", "/v1/conjunctions?since_version=1", nil); rec3.Code != http.StatusOK {
		t.Fatalf("since_version=1 after publish: status %d", rec3.Code)
	}
}

func TestConjunctionsSnapshotPaging(t *testing.T) {
	h := NewServer(Config{})
	h.hub.Publish(serve.NewSnapshot(7, time.Now(), time.Now(), 10, false, []core.Conjunction{
		{A: 1, B: 2, TCA: 10, PCA: 0.5},
		{A: 1, B: 3, TCA: 20, PCA: 1.5},
		{A: 2, B: 3, TCA: 30, PCA: 2.5},
		{A: 4, B: 5, TCA: 40, PCA: 3.5},
		{A: 4, B: 6, TCA: 50, PCA: 4.5},
	}))

	rec := doJSON(t, h, "GET", "/v1/conjunctions?limit=2&offset=1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var page SnapshotConjunctionsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Version != 7 || page.Total != 5 || page.Offset != 1 || page.Limit != 2 {
		t.Fatalf("page meta = %+v", page)
	}
	if len(page.Matches) != 2 || page.Matches[0].A != 1 || page.Matches[0].B != 3 {
		t.Fatalf("page matches = %+v", page.Matches)
	}
	if page.NextOffset != 3 || page.RemainingCount != 2 {
		t.Fatalf("continuation = next %d remaining %d", page.NextOffset, page.RemainingCount)
	}

	// Filters compose with paging; total counts all matches.
	rec = doJSON(t, h, "GET", "/v1/conjunctions?object=4&limit=1", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 2 || len(page.Matches) != 1 || page.Matches[0].B != 5 {
		t.Fatalf("filtered page = %+v", page)
	}
	rec = doJSON(t, h, "GET", "/v1/conjunctions?max_pca_km=2", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 2 {
		t.Fatalf("pca-filtered total = %d, want 2", page.Total)
	}
}

func TestHealthzStalenessGate(t *testing.T) {
	// Without staleness gating, /healthz is 200 even before any snapshot.
	h, cat, _ := newContinuousHandler(t, t.TempDir())
	rec := doJSON(t, h, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("ungated healthz status %d", rec.Code)
	}

	// With gating: 503 before the first snapshot, 200 after a fresh pass,
	// 503 again once the snapshot outlives StaleAfter.
	gated := NewServer(Config{Catalog: cat, StaleAfter: 150 * time.Millisecond})
	rec = doJSON(t, gated, "GET", "/healthz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("gated healthz before snapshot: status %d", rec.Code)
	}
	var hz HealthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "stale" {
		t.Fatalf("status = %q, want stale", hz.Status)
	}

	rs := NewRescreener(gated, satconj.Options{Variant: satconj.VariantGrid, DurationSeconds: 600, Workers: 2}, time.Hour, nil)
	rescreenOnce(t, gated, rs)
	rec = doJSON(t, gated, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("gated healthz after pass: status %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.SnapshotVersion == 0 || hz.LastRescreenAge < 0 {
		t.Fatalf("healthy reply = %+v", hz)
	}

	time.Sleep(200 * time.Millisecond)
	rec = doJSON(t, gated, "GET", "/healthz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("gated healthz after staleness window: status %d", rec.Code)
	}

	// A pass that finds the catalogue unchanged publishes nothing but still
	// counts as a heartbeat: an idle replica is current, not stale.
	if rs.RunOnce(context.Background()) {
		t.Fatal("pass over an unchanged catalogue should not screen")
	}
	rec = doJSON(t, gated, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("gated healthz after idle heartbeat: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestAdmissionControl(t *testing.T) {
	h := NewServer(Config{RateLimit: serve.RateLimit{PerClientRPS: 0.001, Burst: 2}})
	// The burst admits two reads from one client IP, then 429s.
	for i := 0; i < 2; i++ {
		if rec := doJSON(t, h, "GET", "/v1/runs", nil); rec.Code != http.StatusOK {
			t.Fatalf("request %d status %d", i, rec.Code)
		}
	}
	rec := doJSON(t, h, "GET", "/v1/runs", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Health and metrics stay exempt no matter how hot the client is.
	for i := 0; i < 5; i++ {
		if rec := doJSON(t, h, "GET", "/v1/health", nil); rec.Code != http.StatusOK {
			t.Fatalf("health throttled: status %d", rec.Code)
		}
		if rec := doJSON(t, h, "GET", "/healthz", nil); rec.Code != http.StatusOK {
			t.Fatalf("healthz throttled: status %d", rec.Code)
		}
		if rec := doJSON(t, h, "GET", "/metrics", nil); rec.Code != http.StatusOK {
			t.Fatalf("metrics throttled: status %d", rec.Code)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	h, cat, _ := newContinuousHandler(t, t.TempDir())
	applyPair(t, cat, 700)
	rs := NewRescreener(h, satconj.Options{Variant: satconj.VariantGrid, DurationSeconds: 1400, Workers: 2}, time.Hour, nil)
	rescreenOnce(t, h, rs)
	doJSON(t, h, "GET", "/v1/conjunctions", nil) // traffic for the route counters

	rec := doJSON(t, h, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"conjserver_snapshot_version 2\n",
		"conjserver_snapshot_publishes_total 1\n",
		"conjserver_rescreen_runs_total{mode=\"full\"} 1\n",
		"conjserver_rescreen_phase_seconds_total{phase=\"detection\"}",
		"conjserver_rescreen_sort_seconds_total",
		"conjserver_rescreen_candidates_total{stage=\"grid\"}",
		"conjserver_rescreen_candidates_total{stage=\"radial\"}",
		"conjserver_rescreen_candidates_total{stage=\"gated\"}",
		"conjserver_catalog_version 2\n",
		"conjserver_snapshot_age_seconds",
		"conjserver_subscribers 0\n",
		"conjserver_http_requests_total{code=\"200\",route=\"GET /v1/conjunctions\"} 1\n",
		"conjserver_http_request_seconds_bucket{route=\"GET /v1/conjunctions\",le=\"+Inf\"} 1\n",
		"conjserver_pool_gets_total",
		"conjserver_store_runs 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestSubscribeValidation(t *testing.T) {
	h := NewServer(Config{})
	for _, q := range []string{"", "object=x", "object=1&max_km=-2", "object=1&mode=websocket", "object=1&timeout_seconds=0", "object=1&since_version=x"} {
		rec := doJSON(t, h, "GET", "/v1/subscribe?"+q, nil)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("%q: status %d, want 422", q, rec.Code)
		}
	}
}

func TestLongPoll(t *testing.T) {
	h := NewServer(Config{})
	h.hub.Publish(serve.NewSnapshot(3, time.Now(), time.Now(), 4, false, []core.Conjunction{
		{A: 1, B: 2, TCA: 10, PCA: 0.5},
	}))

	// Already satisfied: returns the object's matches immediately.
	rec := doJSON(t, h, "GET", "/v1/subscribe?object=1&mode=poll&since_version=2", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("satisfied poll status %d", rec.Code)
	}
	var pr PollResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Version != 3 || pr.TimedOut || len(pr.Matches) != 1 {
		t.Fatalf("satisfied poll = %+v", pr)
	}

	// Past the current version with a short timeout: times out empty.
	rec = doJSON(t, h, "GET", "/v1/subscribe?object=1&mode=poll&since_version=3&timeout_seconds=0.05", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.TimedOut {
		t.Fatalf("unsatisfied poll = %+v", pr)
	}

	// A publish during the wait wakes the poller with the new version.
	done := make(chan PollResponse, 1)
	go func() {
		rec := doJSON(t, h, "GET", "/v1/subscribe?object=1&mode=poll&since_version=3&timeout_seconds=10", nil)
		var pr PollResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &pr)
		done <- pr
	}()
	time.Sleep(20 * time.Millisecond)
	h.hub.Publish(serve.NewSnapshot(4, time.Now(), time.Now(), 4, false, []core.Conjunction{
		{A: 1, B: 2, TCA: 10, PCA: 0.5},
		{A: 1, B: 3, TCA: 20, PCA: 0.7},
	}))
	select {
	case pr := <-done:
		if pr.Version != 4 || pr.TimedOut || len(pr.Matches) != 2 {
			t.Fatalf("woken poll = %+v", pr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke on publish")
	}
}

// TestPollAndReplayTruncationReported pins the over-cap contract: a
// long-poll whose object has more matches than the per-reply cap reports
// total and truncated instead of silently cutting the set, and the SSE
// replay=1 bootstrap announces the cut with a replay-truncated event.
func TestPollAndReplayTruncationReported(t *testing.T) {
	h := NewServer(Config{})
	n := defaultQueryLimit + 5
	conjs := make([]core.Conjunction, n)
	for i := range conjs {
		conjs[i] = core.Conjunction{A: 1, B: int32(i + 2), TCA: float64(i), PCA: 0.5}
	}
	h.hub.Publish(serve.NewSnapshot(2, time.Now(), time.Now(), n+1, false, conjs))

	rec := doJSON(t, h, "GET", "/v1/subscribe?object=1&mode=poll", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("poll status %d", rec.Code)
	}
	var pr PollResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Matches) != defaultQueryLimit || pr.Total != n || !pr.Truncated {
		t.Fatalf("capped poll: %d matches, total %d, truncated %v", len(pr.Matches), pr.Total, pr.Truncated)
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/subscribe?object=1&replay=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := sseEvents(t, resp.Body)
	waitEvent(t, events, "hello", 5*time.Second)
	waitEvent(t, events, "replay-truncated", 10*time.Second)
}

// TestSnapshotFilterBoundsHonoured pins presence-based filter semantics
// on both paths of GET /v1/conjunctions — the published snapshot and, with
// run=, the store: any supplied tca_min/tca_max/max_pca_km bound is applied,
// zero and negative values included, rather than zero meaning "no filter",
// an absent one is not, and NaN bounds are malformed instead of silently
// inert. The same query string selects the same pairs either way.
func TestSnapshotFilterBoundsHonoured(t *testing.T) {
	conjs := []core.Conjunction{
		{A: 1, B: 2, TCA: 10, PCA: 0.5},
		{A: 1, B: 3, TCA: 20, PCA: 1.5},
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	runID, err := st.Append(store.Run{Conjunctions: conjs})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(Config{Store: st})
	h.hub.Publish(serve.NewSnapshot(3, time.Now(), time.Now(), 4, false, conjs))

	for _, tc := range []struct {
		query string
		want  [][2]int32
	}{
		{"limit=10", [][2]int32{{1, 2}, {1, 3}}}, // no bound at all
		{"tca_max=0", nil},
		{"max_pca_km=0", nil},
		{"max_pca_km=-1", nil},
		{"tca_min=-5", [][2]int32{{1, 2}, {1, 3}}},
		{"tca_min=15", [][2]int32{{1, 3}}},
		{"tca_max=15", [][2]int32{{1, 2}}},
		{"max_pca_km=1", [][2]int32{{1, 2}}},
	} {
		var snap SnapshotConjunctionsResponse
		var stored ConjunctionsResponse
		for path, into := range map[string]any{
			"/v1/conjunctions?" + tc.query:                             &snap,
			fmt.Sprintf("/v1/conjunctions?run=%d&%s", runID, tc.query): &stored,
		} {
			rec := doJSON(t, h, "GET", path, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
			}
			if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
				t.Fatal(err)
			}
		}
		var fromSnap, fromStore [][2]int32
		for _, m := range snap.Matches {
			fromSnap = append(fromSnap, [2]int32{m.A, m.B})
		}
		for _, m := range stored.Matches {
			fromStore = append(fromStore, [2]int32{m.A, m.B})
		}
		if !reflect.DeepEqual(fromSnap, tc.want) || !reflect.DeepEqual(fromStore, tc.want) {
			t.Errorf("%q: snapshot path %v, store path %v, want %v", tc.query, fromSnap, fromStore, tc.want)
		}
	}
	for _, q := range []string{"tca_min=NaN", "tca_max=nan", "max_pca_km=NaN"} {
		for _, prefix := range []string{"", fmt.Sprintf("run=%d&", runID)} {
			if rec := doJSON(t, h, "GET", "/v1/conjunctions?"+prefix+q, nil); rec.Code != http.StatusBadRequest {
				t.Errorf("%q: status %d, want 400", prefix+q, rec.Code)
			}
		}
	}
}

// sseClient reads one SSE stream line-by-line, forwarding "event:" names.
func sseEvents(t *testing.T, body io.Reader) <-chan string {
	t.Helper()
	events := make(chan string, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(body)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				events <- name
			}
		}
	}()
	return events
}

func waitEvent(t *testing.T, events <-chan string, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case name, ok := <-events:
			if !ok {
				t.Fatalf("stream ended before %q event", want)
			}
			if name == want {
				return
			}
		case <-deadline:
			t.Fatalf("no %q event within %v", want, timeout)
		}
	}
}

// TestSSESubscriberGetsEventWithinInterval is the acceptance path: a live
// SSE subscriber sees a conjunction event within one rescreen interval of
// the catalogue delta that caused it.
func TestSSESubscriberGetsEventWithinInterval(t *testing.T) {
	h, cat, _ := newContinuousHandler(t, t.TempDir())
	const interval = 150 * time.Millisecond
	rs := NewRescreener(h, satconj.Options{Variant: satconj.VariantGrid, DurationSeconds: 1400, Workers: 2}, interval, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = rs.Run(ctx) }()

	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/subscribe?object=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := sseEvents(t, resp.Body)
	waitEvent(t, events, "hello", 5*time.Second)

	// The delta creates a crossing pair involving the subscribed object;
	// the interval-driven pass must publish it and the hub must push it.
	applyPair(t, cat, 700)
	started := time.Now()
	waitEvent(t, events, "conjunction", 20*interval)
	if elapsed := time.Since(started); elapsed > 20*interval {
		t.Fatalf("event took %v", elapsed)
	}
}

// TestDrainEndsActiveSSE verifies graceful shutdown: Drain closes the hub,
// active SSE streams end with a "bye" event, and the server's shutdown is
// then not blocked by subscribers.
func TestDrainEndsActiveSSE(t *testing.T) {
	h := NewServer(Config{})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/subscribe?object=9")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := sseEvents(t, resp.Body)
	waitEvent(t, events, "hello", 5*time.Second)
	if n := h.hub.Stats().Subscribers; n != 1 {
		t.Fatalf("subscribers = %d, want 1", n)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		waitEvent(t, events, "bye", 5*time.Second)
		// The handler returns after "bye": the stream must actually end.
		for range events {
		}
	}()
	h.Drain()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream survived Drain")
	}
	// Draining is terminal for subscriptions but not for cached reads.
	rec := doJSON(t, h, "GET", "/v1/subscribe?object=1", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("subscribe while draining: status %d, want 503", rec.Code)
	}
}

// TestNudgeCoalescing pins the Rescreener's wake-up contract: any number
// of Nudges landing while a pass is in flight coalesce into exactly one
// follow-up pass.
func TestNudgeCoalescing(t *testing.T) {
	h, cat, st := newContinuousHandler(t, t.TempDir())
	rs := NewRescreener(h, satconj.Options{Variant: satconj.VariantGrid, DurationSeconds: 600, Workers: 2}, time.Hour, nil)

	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	var once bool
	rs.testBeforeScreen = func() {
		entered <- struct{}{}
		if !once {
			once = true // only the startup pass blocks
			<-release
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- rs.Run(ctx) }()

	// The startup pass (catalogue v1) is now blocked inside the seam.
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("startup pass never started")
	}
	// While it is in flight: a delta lands and clients hammer Nudge.
	applyPair(t, cat, 300)
	for i := 0; i < 10; i++ {
		rs.Nudge()
	}
	close(release)

	// Exactly one follow-up pass screens the delta.
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("follow-up pass never started")
	}
	deadline := time.After(30 * time.Second)
	for st.Len() < 2 {
		select {
		case <-deadline:
			t.Fatalf("follow-up pass never persisted (store has %d runs)", st.Len())
		case <-time.After(5 * time.Millisecond):
		}
	}
	// No third pass: the ten nudges collapsed into the single buffered one,
	// and the catalogue has not moved again.
	select {
	case <-entered:
		t.Fatal("a third pass screened; nudges did not coalesce")
	case <-time.After(250 * time.Millisecond):
	}
	if st.Len() != 2 {
		t.Fatalf("persisted runs = %d, want 2", st.Len())
	}
	cancel()
	<-done
}
