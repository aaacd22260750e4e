package httpapi

// End-to-end tests for continuous operation: catalogue deltas through the
// HTTP surface, incremental rescreening chained across versions, and the
// persistent store backing /v1/conjunctions and /v1/runs history across a
// simulated restart.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	satconj "repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/store"
)

// newContinuousHandler builds a handler with an empty catalogue and a
// store in a test directory, returning both for direct inspection.
func newContinuousHandler(t *testing.T, dir string) (*Handler, *catalog.Catalog, *store.Store) {
	t.Helper()
	cat, err := catalog.New(nil, time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return NewServer(Config{MaxObjects: 1000, Catalog: cat, Store: st}), cat, st
}

func TestCatalogEndpoints(t *testing.T) {
	h, _, _ := newContinuousHandler(t, t.TempDir())

	rec := doJSON(t, h, "GET", "/v1/catalog", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("catalog status %d: %s", rec.Code, rec.Body.String())
	}
	var info CatalogInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Objects != 0 {
		t.Fatalf("fresh catalogue: %+v", info)
	}

	rec = doJSON(t, h, "POST", "/v1/catalog/delta", DeltaRequest{Adds: crossingPairJSON(700)})
	if rec.Code != http.StatusOK {
		t.Fatalf("delta status %d: %s", rec.Code, rec.Body.String())
	}
	var dresp DeltaResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dresp); err != nil {
		t.Fatal(err)
	}
	if dresp.Version != 2 || dresp.Objects != 2 || dresp.Dirty != 2 {
		t.Fatalf("delta response: %+v", dresp)
	}

	// Rejection paths: duplicate add, unknown remove, invalid elements,
	// empty delta.
	cases := []struct {
		name string
		req  DeltaRequest
		code int
	}{
		{"existing add", DeltaRequest{Adds: crossingPairJSON(1)}, http.StatusUnprocessableEntity},
		{"unknown remove", DeltaRequest{Removes: []int32{99}}, http.StatusUnprocessableEntity},
		{"unknown update", DeltaRequest{Updates: []ElementsJSON{{ID: 42, SemiMajorAxis: 7000}}}, http.StatusUnprocessableEntity},
		{"invalid elements", DeltaRequest{Adds: []ElementsJSON{{ID: 9, SemiMajorAxis: -5}}}, http.StatusUnprocessableEntity},
		{"empty", DeltaRequest{}, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := doJSON(t, h, "POST", "/v1/catalog/delta", c.req)
		if rec.Code != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.code, rec.Body.String())
		}
	}
	// Failed deltas must not have advanced the version.
	if v := uint64FromCatalog(t, h); v != 2 {
		t.Fatalf("version after failed deltas = %d, want 2", v)
	}
}

func uint64FromCatalog(t *testing.T, h *Handler) uint64 {
	t.Helper()
	rec := doJSON(t, h, "GET", "/v1/catalog", nil)
	var info CatalogInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	return info.Version
}

func TestStatelessServerGates(t *testing.T) {
	h := NewServer(Config{}) // no catalogue, no store
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/catalog"},
		{"POST", "/v1/catalog/delta"},
		{"GET", "/v1/conjunctions"},
	} {
		rec := doJSON(t, h, probe.method, probe.path, DeltaRequest{Removes: []int32{1}})
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s: status %d, want 503", probe.method, probe.path, rec.Code)
		}
	}
}

// TestRescreenerDeltaChain drives the full continuous loop: seed the
// catalogue, screen, apply a delta that creates a new close pair, and
// verify the incremental pass both finds the new conjunction and persists
// it with the right catalogue version and incremental flag.
func TestRescreenerDeltaChain(t *testing.T) {
	h, cat, st := newContinuousHandler(t, t.TempDir())
	opts := satconj.Options{Variant: satconj.VariantGrid, DurationSeconds: 1400, Workers: 2}
	rs := NewRescreener(h, opts, time.Hour, t.Logf)
	ctx := context.Background()

	// Pass over the empty version-1 catalogue: a run with zero objects.
	if !rs.RunOnce(ctx) {
		t.Fatal("first pass did not screen")
	}
	if rs.RunOnce(ctx) {
		t.Fatal("unchanged catalogue re-screened")
	}

	// Version 2: a crossing pair meeting at t=700.
	adds, err := toSatellites(crossingPairJSON(700), "adds")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.ApplyDelta(catalog.Delta{Adds: adds}); err != nil {
		t.Fatal(err)
	}
	if !rs.RunOnce(ctx) {
		t.Fatal("post-delta pass did not screen")
	}

	// Version 3: a third object in yet another plane, phased to cross the
	// shared node at the same t=700 — detected by an *incremental* pass
	// (objects 0 and 1 are clean this round).
	el := orbit.Elements{SemiMajorAxis: 7000.0005, Eccentricity: 0.0005, Inclination: 2.0}
	el.MeanAnomaly = mathx.NormalizeAngle(-el.MeanMotion() * 700)
	third, err := satconj.NewSatellite(2, el)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.ApplyDelta(catalog.Delta{Adds: []satconj.Satellite{third}}); err != nil {
		t.Fatal(err)
	}
	if !rs.RunOnce(ctx) {
		t.Fatal("second delta pass did not screen")
	}

	// Three persisted runs: full (v1, no prior yet), then two incremental
	// passes (v2 extends the empty v1 result, v3 extends v2's).
	if st.Len() != 3 {
		t.Fatalf("persisted runs = %d, want 3", st.Len())
	}
	last, ok, err := st.Run(3)
	if !ok {
		t.Fatal("run 3 missing", err)
	}
	if !last.Incremental || last.CatalogVersion != 3 || last.Objects != 3 {
		t.Fatalf("delta run header: %+v", last)
	}
	// The incremental result holds the retained v2 encounter (0,1) AND the
	// fresh (0,2) and (1,2) ones — object 2 crosses both clean objects at
	// the node. Conjunctions are stored raw (one per flagged step), so
	// group by pair before judging.
	found := map[[2]int32]float64{} // pair -> best (closest) TCA
	best := map[[2]int32]float64{}
	for _, c := range last.Conjunctions {
		key := [2]int32{c.A, c.B}
		if d, seen := best[key]; !seen || c.PCA < d {
			best[key], found[key] = c.PCA, c.TCA
		}
	}
	if len(found) != 3 {
		t.Fatalf("delta run pairs = %v", found)
	}
	for _, pair := range [][2]int32{{0, 1}, {0, 2}, {1, 2}} {
		if tca, ok := found[pair]; !ok || math.Abs(tca-700) > 5 {
			t.Fatalf("pair %v wrong: %v", pair, found)
		}
	}

	// The /v1/conjunctions endpoint serves the same events.
	rec := doJSON(t, h, "GET", "/v1/conjunctions?run=3&object=2", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("conjunctions status %d: %s", rec.Code, rec.Body.String())
	}
	var cresp ConjunctionsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cresp); err != nil {
		t.Fatal(err)
	}
	if len(cresp.Matches) == 0 {
		t.Fatal("object-2 query returned nothing")
	}
	for _, m := range cresp.Matches {
		if m.B != 2 || m.RunID != 3 || math.Abs(m.TCA-700) > 5 {
			t.Fatalf("query match = %+v", m)
		}
	}
}

func TestConjunctionsQueryValidation(t *testing.T) {
	h, _, _ := newContinuousHandler(t, t.TempDir())
	// Malformed filter values are a bad request.
	for _, q := range []string{"run=x", "object=foo", "tca_min=a", "tca_max=b", "max_pca_km=c"} {
		rec := doJSON(t, h, "GET", "/v1/conjunctions?"+q, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, rec.Code)
		}
	}
	// Unservable paging values are unprocessable.
	for _, q := range []string{"limit=0", "limit=-2", "limit=1000001", "limit=x", "offset=-1", "offset=z", "since_version=-3"} {
		rec := doJSON(t, h, "GET", "/v1/conjunctions?"+q, nil)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422", q, rec.Code)
		}
	}
}

// TestConjunctionsStoreQueryBounds: on the store path, run=0 names no run
// (IDs start at 1) rather than every run, and an offset past the end — even
// one that overflows offset+limit — pages past every match instead of
// lifting the limit.
func TestConjunctionsStoreQueryBounds(t *testing.T) {
	h, _, st := newContinuousHandler(t, t.TempDir())
	for run := 0; run < 3; run++ {
		r := store.Run{Variant: "grid", Objects: 3}
		for i := 0; i < 4; i++ {
			r.Conjunctions = append(r.Conjunctions, core.Conjunction{A: int32(i), B: int32(i + 1), TCA: float64(100*run + i)})
		}
		if _, err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	for query, want := range map[string][]float64{
		"run=0":                                  nil,
		"run=2&limit=2&offset=1":                 {101, 102},
		"limit=3&offset=6":                       {102, 103, 200},
		"limit=10000&offset=9223372036854775800": nil,
	} {
		rec := doJSON(t, h, "GET", "/v1/conjunctions?"+query, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", query, rec.Code, rec.Body.String())
		}
		var resp ConjunctionsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		var got []float64
		for _, m := range resp.Matches {
			got = append(got, m.TCA)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: TCAs %v, want %v", query, got, want)
		}
	}
}

// TestHistorySurvivesRestart screens through the HTTP surface, then
// rebuilds the handler over the same store directory — the moral
// equivalent of a process restart — and expects the run history and its
// conjunctions to still be served.
func TestHistorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	h, _, st := newContinuousHandler(t, dir)

	rec := doJSON(t, h, "POST", "/v1/screen", ScreenRequest{
		Satellites:      crossingPairJSON(700),
		Variant:         "grid",
		DurationSeconds: 1400,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("screen status %d: %s", rec.Code, rec.Body.String())
	}
	var sresp ScreenResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sresp); err != nil {
		t.Fatal(err)
	}
	if sresp.StoredRunID != 1 {
		t.Fatalf("stored_run_id = %d, want 1", sresp.StoredRunID)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh handler over the same directory.
	h2, _, _ := newContinuousHandler(t, dir)
	rec = doJSON(t, h2, "GET", "/v1/runs", nil)
	var runs RunsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs.Runs) != 0 {
		t.Fatalf("in-memory runs after restart = %d, want 0", len(runs.Runs))
	}
	if len(runs.History) != 1 || runs.History[0].ID != 1 || runs.History[0].Variant != "grid" {
		t.Fatalf("history after restart = %+v", runs.History)
	}
	rec = doJSON(t, h2, "GET", "/v1/conjunctions", nil)
	var cresp ConjunctionsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cresp); err != nil {
		t.Fatal(err)
	}
	if len(cresp.Matches) == 0 {
		t.Fatal("no conjunctions after restart")
	}
	for _, m := range cresp.Matches {
		if m.RunID != 1 || m.A != 0 || m.B != 1 || math.Abs(m.TCA-700) > 5 {
			t.Fatalf("match after restart = %+v", m)
		}
	}
}

// TestRecentRunsCapConfigurable pins the /v1/runs retention: set by
// Config.RecentRuns, 32 by default.
func TestRecentRunsCapConfigurable(t *testing.T) {
	h := NewServer(Config{RecentRuns: 2})
	if h.runs.cap != 2 {
		t.Fatalf("cap = %d, want 2", h.runs.cap)
	}
	for i := 0; i < 5; i++ {
		e := h.runs.start("grid", 1)
		h.runs.finish(e, RunCompleted, 0, "")
	}
	if got := len(h.runs.list()); got != 2 {
		t.Fatalf("visible finished runs = %d, want 2", got)
	}
	if def := NewServer(Config{}); def.runs.cap != defaultRecentRuns {
		t.Fatalf("default cap = %d, want %d", def.runs.cap, defaultRecentRuns)
	}
}

// TestRescreenerNudge exercises the background loop itself: Run wakes on a
// nudge without waiting out the (long) interval.
func TestRescreenerNudge(t *testing.T) {
	h, cat, st := newContinuousHandler(t, t.TempDir())
	rs := NewRescreener(h, satconj.Options{Variant: satconj.VariantGrid, DurationSeconds: 600, Workers: 2}, time.Hour, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rs.Run(ctx) }()

	waitForRuns := func(n int, what string) {
		t.Helper()
		deadline := time.After(30 * time.Second)
		for st.Len() < n {
			select {
			case <-deadline:
				t.Fatalf("%s never persisted (store has %d runs)", what, st.Len())
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	// Let the startup pass land first, so the delta below is guaranteed to
	// be *new* work for the nudged pass.
	waitForRuns(1, "startup pass")

	adds, err := toSatellites(crossingPairJSON(300), "adds")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.ApplyDelta(catalog.Delta{Adds: adds}); err != nil {
		t.Fatal(err)
	}
	rs.Nudge()
	waitForRuns(2, "nudged pass")
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
}

// TestRescreenerExplainsTrackDrops: every event that ends the session's key
// track — an epoch change, an add, a failed pass, a delta above the crossover
// — is followed by a pass whose snapshot equals a from-scratch screen and
// whose log line, /v1/runs entry and /metrics gauges say what was read from
// the track and why it was dropped.
func TestRescreenerExplainsTrackDrops(t *testing.T) {
	sats, err := satconj.GeneratePopulation(satconj.PopulationConfig{N: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC)
	cat, err := catalog.New(sats, epoch, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(Config{Catalog: cat})
	opts := satconj.Options{Variant: satconj.VariantHybrid, DurationSeconds: 600, Workers: 2}
	var lastLog string
	rs := NewRescreener(h, opts, time.Hour, func(format string, args ...any) {
		lastLog = fmt.Sprintf(format, args...)
		t.Log(lastLog)
	})
	ctx := context.Background()

	update := func(ids ...int32) catalog.Delta {
		var d catalog.Delta
		latest := cat.Latest().Satellites()
		for _, id := range ids {
			el := latest[id].Elements // IDs are positions until the add below, which appends
			el.MeanAnomaly = mathx.NormalizeAngle(el.MeanAnomaly + 1e-3)
			s, err := satconj.NewSatellite(id, el)
			if err != nil {
				t.Fatal(err)
			}
			d.Updates = append(d.Updates, s)
		}
		return d
	}
	added, err := satconj.NewSatellite(64, sats[7].Elements)
	if err != nil {
		t.Fatal(err)
	}
	var quarter []int32
	for id := int32(0); id < 16; id++ {
		quarter = append(quarter, id)
	}
	moved := update(6)
	moved.Epoch = epoch.Add(time.Hour)

	steps := []struct {
		name    string
		delta   *catalog.Delta // nil: screen the catalogue as it stands
		fail    bool           // cancel the pass as it starts, then run it again
		tracked int
		want    string // in the pass's log line
	}{
		{name: "first pass", want: "(full,"},
		{name: "priming delta", delta: ptr(update(1, 2)), want: "key track 0 rows read"},
		{name: "tracked delta", delta: ptr(update(3)), tracked: 63, want: "key track 63 rows read"},
		{name: "epoch moved", delta: &moved, want: "dropped: epoch"},
		{name: "re-priming delta", delta: ptr(update(8)), want: "(delta,"},
		{name: "add", delta: &catalog.Delta{Adds: []satconj.Satellite{added}}, want: "dropped: membership"},
		{name: "failed pass", delta: ptr(update(9)), fail: true, tracked: 64, want: "dropped: failed-pass"}, // it had opened only row 9
		{name: "tracked again", delta: ptr(update(10)), tracked: 64, want: "key track 64 rows read"},
		{name: "above the crossover", delta: ptr(update(quarter...)), want: "dropped: crossover"},
	}
	for _, step := range steps {
		if step.delta != nil {
			if _, err := cat.ApplyDelta(*step.delta); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
		}
		if step.fail {
			cctx, cancel := context.WithCancel(ctx)
			rs.testBeforeScreen = cancel
			if rs.RunOnce(cctx) || !strings.Contains(lastLog, "failed") {
				t.Fatalf("%s: cancelled pass completed; log %q", step.name, lastLog)
			}
			rs.testBeforeScreen = nil
		}
		if !rs.RunOnce(ctx) {
			t.Fatalf("%s: pass did not screen", step.name)
		}
		if !strings.Contains(lastLog, step.want) {
			t.Fatalf("%s: log line %q does not say %q", step.name, lastLog, step.want)
		}
		rev := cat.Latest()
		fresh, err := satconj.Screen(rev.Satellites(), opts)
		if err != nil {
			t.Fatal(err)
		}
		snap := h.Snapshot()
		if snap.Version != uint64(rev.Version()) || len(snap.Conjunctions) != len(fresh.Conjunctions) {
			t.Fatalf("%s: snapshot v%d has %d conjunctions, a fresh screen of v%d %d",
				step.name, snap.Version, len(snap.Conjunctions), rev.Version(), len(fresh.Conjunctions))
		}
		for k, c := range snap.Conjunctions {
			if c != fresh.Conjunctions[k] {
				t.Fatalf("%s: conjunction %d = %+v, fresh screen %+v", step.name, k, c, fresh.Conjunctions[k])
			}
		}

		var runs RunsResponse
		if err := json.Unmarshal(doJSON(t, h, "GET", "/v1/runs", nil).Body.Bytes(), &runs); err != nil {
			t.Fatal(err)
		}
		last := runs.Runs[0]
		if last.TrackedObjects != step.tracked || (last.TrackDropped != "") != strings.Contains(step.want, "dropped") ||
			!strings.Contains(step.want, last.TrackDropped) {
			t.Fatalf("%s: /v1/runs entry %+v", step.name, last)
		}
		metrics := doJSON(t, h, "GET", "/metrics", nil).Body.String()
		if want := fmt.Sprintf("conjserver_rescreen_tracked_objects %d\n", step.tracked); !strings.Contains(metrics, want) {
			t.Fatalf("%s: /metrics lacks %q", step.name, want)
		}
		if want := fmt.Sprintf("conjserver_rescreen_track_bytes %d\n", last.TrackBytes); !strings.Contains(metrics, want) {
			t.Fatalf("%s: /metrics lacks %q", step.name, want)
		}
		if want := fmt.Sprintf("conjserver_rescreen_visited_object_steps %d\n", last.VisitedObjectSteps); last.VisitedObjectSteps == 0 || !strings.Contains(metrics, want) {
			t.Fatalf("%s: /v1/runs visited %d object-steps, /metrics lacks %q", step.name, last.VisitedObjectSteps, want)
		}
	}
}

func ptr[T any](v T) *T { return &v }
