package httpapi

// Registry-completeness guards for the HTTP layer: every variant the
// detector registry knows must round-trip through /v1/screen, show up in
// the /v1/runs registry, and be described by GET /v1/variants — all
// without this file naming a single variant beyond the defaults it pins.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	satconj "repro"
)

// TestEveryRegisteredVariantRoundTripsAPI screens the engineered crossing
// pair once per registered variant and checks the variant field survives
// request → screen → response → run registry.
func TestEveryRegisteredVariantRoundTripsAPI(t *testing.T) {
	h := NewServer(Config{})
	names := satconj.VariantNames()
	if len(names) < 3 {
		t.Fatalf("registry lists %v, want the three detector families", names)
	}
	for _, name := range names {
		rec := doJSON(t, h, "POST", "/v1/screen", ScreenRequest{
			Satellites:      crossingPairJSON(700),
			Variant:         name,
			ThresholdKm:     2,
			DurationSeconds: 1400,
			EventTolSeconds: 10,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
		}
		var resp ScreenResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Variant != name {
			t.Errorf("%s: response variant = %q", name, resp.Variant)
		}
		if len(resp.Conjunctions) != 1 {
			t.Errorf("%s: conjunctions = %d, want 1", name, len(resp.Conjunctions))
		}
	}

	rec := doJSON(t, h, "GET", "/v1/runs", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("runs status %d", rec.Code)
	}
	var runs RunsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &runs); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range runs.Runs {
		if r.Status != RunCompleted {
			t.Errorf("run %s (%s): status %s, want completed", r.ID, r.Variant, r.Status)
		}
		seen[r.Variant] = true
	}
	for _, name := range names {
		if !seen[name] {
			t.Errorf("variant %s has no entry in /v1/runs", name)
		}
	}
}

// TestVariantsEndpoint pins GET /v1/variants against the registry: one
// entry per registered variant, capability flags mirroring the
// descriptors, hybrid marked as the default.
func TestVariantsEndpoint(t *testing.T) {
	h := NewServer(Config{})
	rec := doJSON(t, h, "GET", "/v1/variants", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var got []VariantJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	ds := satconj.Variants()
	if len(got) != len(ds) {
		t.Fatalf("endpoint lists %d variants, registry %d", len(got), len(ds))
	}
	defaults := 0
	for i, d := range ds {
		v := got[i]
		if v.Name != string(d.Name) || v.Description != d.Description || v.Baseline != d.Baseline {
			t.Errorf("entry %d = %+v, descriptor %+v", i, v, d)
		}
		if v.ScreenDelta != d.Incremental {
			t.Errorf("%s: screen_delta diverges from descriptor", v.Name)
		}
		if v.Default {
			defaults++
			if v.Name != string(satconj.VariantHybrid) {
				t.Errorf("default variant = %s, want hybrid", v.Name)
			}
		}
	}
	if defaults != 1 {
		t.Errorf("%d entries marked default, want exactly 1", defaults)
	}
}

// TestUnknownVariant422ListsRegistered: the validation error must carry
// every registered name so clients can self-correct.
func TestUnknownVariant422ListsRegistered(t *testing.T) {
	h := NewServer(Config{})
	rec := doJSON(t, h, "POST", "/v1/screen", ScreenRequest{
		Generate:        &GenerateJSON{N: 10, Seed: 1},
		Variant:         "quantum",
		DurationSeconds: 10,
	})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if !strings.Contains(body, "quantum") {
		t.Errorf("error does not echo the rejected name: %s", body)
	}
	for _, n := range satconj.VariantNames() {
		if !strings.Contains(body, n) {
			t.Errorf("error does not list registered variant %q: %s", n, body)
		}
	}
}
