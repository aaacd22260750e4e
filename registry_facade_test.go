package satconj

import (
	"strings"
	"testing"
)

// TestEveryRegisteredVariantScreens drives each registry entry end to end
// through the public facade on the same engineered encounter. This is the
// completeness guard for the registry refactor: a variant that registers
// itself but fails to screen, mislabels its result, or misses a textbook
// crossing fails here without any per-variant test code.
func TestEveryRegisteredVariantScreens(t *testing.T) {
	sats := crossingPair(t, 800)
	ds := Variants()
	if len(ds) < 4 {
		t.Fatalf("registry lists %d variants, want the four detector families", len(ds))
	}
	for _, d := range ds {
		d := d
		t.Run(string(d.Name), func(t *testing.T) {
			res, err := Screen(sats, Options{Variant: d.Name, ThresholdKm: 2, DurationSeconds: 1600})
			if err != nil {
				t.Fatal(err)
			}
			if res.Variant != d.Name {
				t.Errorf("result variant = %q, want %q", res.Variant, d.Name)
			}
			ev := res.Events(10)
			if len(ev) != 1 {
				t.Fatalf("events = %d, want 1", len(ev))
			}
			if diff := ev[0].TCA - 800; diff > 3 || diff < -3 {
				t.Errorf("TCA = %v, want ≈800", ev[0].TCA)
			}
		})
	}
}

// TestVariantNamesMirrorDescriptors pins the two registry views against
// each other and the lookup path — the CLI flag help, the HTTP error
// payloads and /v1/variants all derive from these.
func TestVariantNamesMirrorDescriptors(t *testing.T) {
	names := VariantNames()
	ds := Variants()
	if len(names) != len(ds) {
		t.Fatalf("VariantNames has %d entries, Variants %d", len(names), len(ds))
	}
	for i, d := range ds {
		if names[i] != string(d.Name) {
			t.Errorf("names[%d] = %q, descriptor %q", i, names[i], d.Name)
		}
		got, ok := LookupVariant(d.Name)
		if !ok {
			t.Errorf("LookupVariant(%q) failed", d.Name)
			continue
		}
		if got.Description != d.Description {
			t.Errorf("%s: lookup description diverges", d.Name)
		}
	}
}

// TestUnknownVariantErrorListsRegistered: the dispatch error must teach —
// it names every registered variant so a typo is self-correcting.
func TestUnknownVariantErrorListsRegistered(t *testing.T) {
	_, err := Screen(nil, Options{Variant: "quantum", DurationSeconds: 10})
	if err == nil {
		t.Fatal("unknown variant accepted")
	}
	for _, n := range VariantNames() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not list registered variant %q", err, n)
		}
	}
}

// TestScreenDeltaHonoursCapabilityFlag: variants that are not Incremental
// must be rejected by the incremental entry point with a descriptive error,
// not a type-assertion panic.
func TestScreenDeltaHonoursCapabilityFlag(t *testing.T) {
	sats := crossingPair(t, 800)
	for _, d := range Variants() {
		d := d
		t.Run(string(d.Name), func(t *testing.T) {
			_, err := ScreenDelta(sats, Options{Variant: d.Name, ThresholdKm: 2, DurationSeconds: 1600},
				DeltaInput{Dirty: []int32{0}})
			if d.Incremental {
				if err != nil {
					t.Fatalf("delta-capable variant rejected: %v", err)
				}
			} else if err == nil || !strings.Contains(err.Error(), "no incremental mode") {
				t.Fatalf("err = %v, want capability rejection", err)
			}
		})
	}
}
