package core

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/propagation"
)

// newDetector constructs the variant registered under name; newGrid and
// newHybrid are its shorthands.
func newDetector(name Variant, cfg Config) *detector {
	d, _ := Lookup(name)
	return d.New(cfg).(*detector)
}

func newGrid(cfg Config) *detector   { return newDetector(VariantGrid, cfg) }
func newHybrid(cfg Config) *detector { return newDetector(VariantHybrid, cfg) }

// Screen is ScreenContext without cancellation, for the tests.
func (d *detector) Screen(sats []propagation.Satellite) (*Result, error) {
	return d.ScreenContext(context.Background(), sats)
}

// TestRegistryContents checks the in-package detectors self-registered with
// well-formed descriptors and that the enumeration order is deterministic.
// (The legacy baseline registers from its own package; the external
// battery in registry_battery_test.go covers the full set.)
func TestRegistryContents(t *testing.T) {
	for _, name := range []Variant{VariantGrid, VariantHybrid} {
		d, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q): not registered", name)
		}
		if d.Name != name {
			t.Errorf("Lookup(%q): descriptor name %q", name, d.Name)
		}
		if d.New == nil {
			t.Errorf("Lookup(%q): nil constructor", name)
		}
		if d.Description == "" {
			t.Errorf("Lookup(%q): empty description", name)
		}
		if !d.Incremental {
			t.Errorf("Lookup(%q): not incremental", name)
		}
	}
	if _, ok := Lookup("no-such-variant"); ok {
		t.Error("Lookup of an unregistered name succeeded")
	}

	names := VariantNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("VariantNames not sorted: %v", names)
	}
	ds := Variants()
	if len(ds) != len(names) {
		t.Fatalf("Variants() has %d entries, VariantNames() %d", len(ds), len(names))
	}
	for i, d := range ds {
		if string(d.Name) != names[i] {
			t.Errorf("enumeration order diverged at %d: %q vs %q", i, d.Name, names[i])
		}
	}
}

// expectPanic returns a deferred checker asserting the test body panicked
// with a message containing want.
func expectPanic(t *testing.T, want string) func() {
	t.Helper()
	return func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v; want message containing %q", r, want)
		}
	}
}

func TestRegisterRejectsBadRegistrations(t *testing.T) {
	ctor := func(cfg Config) Detector { return newGrid(cfg) }
	t.Run("duplicate", func(t *testing.T) {
		defer expectPanic(t, "already registered")()
		Register(VariantGrid, Descriptor{New: ctor})
	})
	t.Run("empty-name", func(t *testing.T) {
		defer expectPanic(t, "empty variant name")()
		Register("", Descriptor{New: ctor})
	})
	t.Run("nil-constructor", func(t *testing.T) {
		defer expectPanic(t, "nil constructor")()
		Register("nil-ctor-probe", Descriptor{})
	})
}
