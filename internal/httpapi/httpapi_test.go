package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/mathx"
	"repro/internal/orbit"
	"repro/internal/pool"
)

func doJSON(t *testing.T, h http.Handler, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthAndVersion(t *testing.T) {
	h := NewServer(Config{})
	rec := doJSON(t, h, "GET", "/v1/health", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("health status %d", rec.Code)
	}
	rec = doJSON(t, h, "GET", "/v1/version", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("version status %d", rec.Code)
	}
	var v map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v["version"] != Version {
		t.Errorf("version = %q", v["version"])
	}
}

func crossingPairJSON(tMeet float64) []ElementsJSON {
	elA := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.4}
	elB := orbit.Elements{SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 1.1}
	return []ElementsJSON{
		{ID: 0, SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 0.4,
			MeanAnomaly: mathx.NormalizeAngle(-elA.MeanMotion() * tMeet)},
		{ID: 1, SemiMajorAxis: 7000, Eccentricity: 0.0005, Inclination: 1.1,
			MeanAnomaly: mathx.NormalizeAngle(-elB.MeanMotion() * tMeet)},
	}
}

func TestScreenExplicitPopulation(t *testing.T) {
	h := NewServer(Config{})
	rec := doJSON(t, h, "POST", "/v1/screen", ScreenRequest{
		Satellites:      crossingPairJSON(700),
		Variant:         "grid",
		ThresholdKm:     2,
		DurationSeconds: 1400,
		EventTolSeconds: 10,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ScreenResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Variant != "grid" || resp.Objects != 2 {
		t.Errorf("resp = %+v", resp)
	}
	if len(resp.Conjunctions) != 1 {
		t.Fatalf("conjunctions = %d, want 1", len(resp.Conjunctions))
	}
	if math.Abs(resp.Conjunctions[0].TCA-700) > 3 {
		t.Errorf("TCA = %v", resp.Conjunctions[0].TCA)
	}
	if resp.ElapsedSeconds <= 0 || resp.Refinements == 0 {
		t.Errorf("stats missing: %+v", resp)
	}
}

func TestScreenGeneratedPopulation(t *testing.T) {
	h := NewServer(Config{})
	rec := doJSON(t, h, "POST", "/v1/screen", ScreenRequest{
		Generate:        &GenerateJSON{N: 200, Seed: 5},
		DurationSeconds: 60,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ScreenResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Objects != 200 || resp.Variant != "hybrid" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestScreenValidation(t *testing.T) {
	h := NewServer(Config{MaxObjects: 50})
	cases := []struct {
		name string
		req  ScreenRequest
		code int
	}{
		{"no population", ScreenRequest{DurationSeconds: 10}, http.StatusBadRequest},
		{"both populations", ScreenRequest{Satellites: crossingPairJSON(1), Generate: &GenerateJSON{N: 5}, DurationSeconds: 10}, http.StatusBadRequest},
		{"over limit", ScreenRequest{Generate: &GenerateJSON{N: 51}, DurationSeconds: 10}, http.StatusRequestEntityTooLarge},
		{"missing duration", ScreenRequest{Satellites: crossingPairJSON(1)}, http.StatusUnprocessableEntity},
		{"bad variant", ScreenRequest{Satellites: crossingPairJSON(1), Variant: "quantum", DurationSeconds: 10}, http.StatusUnprocessableEntity},
		{"invalid elements", ScreenRequest{Satellites: []ElementsJSON{{ID: 0, SemiMajorAxis: -1}, {ID: 1, SemiMajorAxis: 7000}}, DurationSeconds: 10}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		rec := doJSON(t, h, "POST", "/v1/screen", c.req)
		if rec.Code != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.code, rec.Body.String())
		}
		var e errorJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body missing: %s", c.name, rec.Body.String())
		}
	}
}

// TestScreenErrorPaths drives every request-rejection path — malformed
// bodies, empty and oversized populations, invalid screening parameters,
// and a pipeline failure deep enough to have acquired pooled structures —
// and asserts both the status code and that the shared buffer pool balances
// back to its starting level: an error reply must never strand a pooled
// structure.
func TestScreenErrorPaths(t *testing.T) {
	h := NewServer(Config{MaxObjects: 50, MaxBody: 2048})
	before := pool.Default.Stats().Outstanding()

	dupSats := crossingPairJSON(1)
	dupSats[1].ID = dupSats[0].ID

	cases := []struct {
		name string
		body string // raw JSON (invalid bodies can't be built from the struct)
		code int
	}{
		{"malformed json", `{"duration_seconds": 10,`, http.StatusBadRequest},
		{"wrong field type", `{"duration_seconds": "ten"}`, http.StatusBadRequest},
		{"unknown field", `{"duration_seconds": 10, "frobnicate": true}`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
		{"oversized body", `{"pad": "` + strings.Repeat("x", 4096) + `"}`, http.StatusRequestEntityTooLarge},
		{"no population", mustJSON(t, ScreenRequest{DurationSeconds: 10}), http.StatusBadRequest},
		{"empty satellites", `{"satellites": [], "duration_seconds": 10}`, http.StatusBadRequest},
		{"zero generate", mustJSON(t, ScreenRequest{Generate: &GenerateJSON{N: 0}, DurationSeconds: 10}), http.StatusBadRequest},
		{"negative generate", mustJSON(t, ScreenRequest{Generate: &GenerateJSON{N: -5}, DurationSeconds: 10}), http.StatusBadRequest},
		{"generate over limit", mustJSON(t, ScreenRequest{Generate: &GenerateJSON{N: 51}, DurationSeconds: 10}), http.StatusRequestEntityTooLarge},
		{"zero duration", mustJSON(t, ScreenRequest{Satellites: crossingPairJSON(1)}), http.StatusUnprocessableEntity},
		{"negative duration", mustJSON(t, ScreenRequest{Satellites: crossingPairJSON(1), DurationSeconds: -60}), http.StatusUnprocessableEntity},
		{"negative threshold", mustJSON(t, ScreenRequest{Satellites: crossingPairJSON(1), DurationSeconds: 10, ThresholdKm: -2}), http.StatusUnprocessableEntity},
		{"negative sample step", mustJSON(t, ScreenRequest{Satellites: crossingPairJSON(1), DurationSeconds: 10, SecondsPerSample: -1}), http.StatusUnprocessableEntity},
		{"negative event tolerance", mustJSON(t, ScreenRequest{Satellites: crossingPairJSON(1), DurationSeconds: 10, EventTolSeconds: -1}), http.StatusUnprocessableEntity},
		{"negative sigma", mustJSON(t, ScreenRequest{Satellites: crossingPairJSON(1), DurationSeconds: 10, SigmaKm: -0.5}), http.StatusUnprocessableEntity},
		{"duplicate satellite ids", mustJSON(t, ScreenRequest{Satellites: dupSats, DurationSeconds: 10}), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest("POST", "/v1/screen", strings.NewReader(c.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != c.code {
				t.Errorf("status %d, want %d (%s)", rec.Code, c.code, rec.Body.String())
			}
			var e errorJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("error body missing: %s", rec.Body.String())
			}
			if out := pool.Default.Stats().Outstanding(); out != before {
				t.Errorf("pooled structures outstanding went %d -> %d", before, out)
			}
		})
	}
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPoolEndpointObservesScreening: /v1/pool must show screening traffic
// (gets/puts advance) and an idle server must owe the pool nothing.
func TestPoolEndpointObservesScreening(t *testing.T) {
	h := NewServer(Config{})
	before := pool.Default.Stats()
	rec := doJSON(t, h, "POST", "/v1/screen", ScreenRequest{
		Satellites:      crossingPairJSON(300),
		Variant:         "grid",
		ThresholdKm:     2,
		DurationSeconds: 600,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("screen status %d: %s", rec.Code, rec.Body.String())
	}
	rec = doJSON(t, h, "GET", "/v1/pool", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("pool status %d", rec.Code)
	}
	var st map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st["gets"] <= before.Gets {
		t.Errorf("gets did not advance: %v (before %d)", st, before.Gets)
	}
	if st["outstanding"] != 0 {
		t.Errorf("idle server owes the pool %d structures", st["outstanding"])
	}
}

func TestScreenRejectsUnknownFields(t *testing.T) {
	h := NewServer(Config{})
	req := httptest.NewRequest("POST", "/v1/screen", bytes.NewBufferString(`{"duration_seconds":10,"frobnicate":true}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field accepted: %d", rec.Code)
	}
}

func TestMethodRouting(t *testing.T) {
	h := NewServer(Config{})
	rec := doJSON(t, h, "GET", "/v1/screen", nil)
	if rec.Code == http.StatusOK {
		t.Error("GET /v1/screen accepted")
	}
	rec = doJSON(t, h, "POST", "/v1/health", nil)
	if rec.Code == http.StatusOK {
		t.Error("POST /v1/health accepted")
	}
	rec = doJSON(t, h, "GET", "/nope", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown path status %d", rec.Code)
	}
}

func TestScreenWithRiskFields(t *testing.T) {
	h := NewServer(Config{})
	rec := doJSON(t, h, "POST", "/v1/screen", ScreenRequest{
		Satellites:      crossingPairJSON(500),
		Variant:         "grid",
		ThresholdKm:     2,
		DurationSeconds: 1000,
		EventTolSeconds: 10,
		SigmaKm:         0.5,
		HardBodyKm:      0.02,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ScreenResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Conjunctions) != 1 {
		t.Fatalf("conjunctions = %d", len(resp.Conjunctions))
	}
	c := resp.Conjunctions[0]
	if c.Pc <= 0 || c.Pc > 1 {
		t.Errorf("Pc = %v", c.Pc)
	}
	if c.Bucket == "" {
		t.Error("bucket missing")
	}
}

func TestLegacyVariantViaAPI(t *testing.T) {
	h := NewServer(Config{})
	rec := doJSON(t, h, "POST", "/v1/screen", ScreenRequest{
		Satellites:      crossingPairJSON(300),
		Variant:         "legacy",
		ThresholdKm:     2,
		DurationSeconds: 600,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ScreenResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Backend != "cpu-sequential" {
		t.Errorf("backend = %q", resp.Backend)
	}
	if len(resp.Conjunctions) != 1 {
		t.Errorf("conjunctions = %d", len(resp.Conjunctions))
	}
}
