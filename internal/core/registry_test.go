package core

import (
	"sort"
	"strings"
	"testing"
)

// TestRegistryContents checks the in-package detectors self-registered with
// well-formed descriptors and that the enumeration order is deterministic.
// (The legacy baseline registers from its own package; the external
// battery in registry_battery_test.go covers the full set.)
func TestRegistryContents(t *testing.T) {
	for _, name := range []Variant{VariantGrid, VariantHybrid, VariantAABB} {
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

// TestRegistryCapabilitiesMatchImplementation: a descriptor advertising
// CapScreenDelta must construct a detector that actually implements
// DeltaDetector, and vice versa — the flags are load-bearing (satconj
// routes ScreenDelta through them).
func TestRegistryCapabilitiesMatchImplementation(t *testing.T) {
	for _, d := range Variants() {
		det := d.New(Config{DurationSeconds: 60})
		if det == nil {
			t.Fatalf("%s: constructor returned nil", d.Name)
		}
		_, isDelta := det.(DeltaDetector)
		if d.Caps.Has(CapScreenDelta) != isDelta {
			t.Errorf("%s: CapScreenDelta=%v but DeltaDetector=%v",
				d.Name, d.Caps.Has(CapScreenDelta), isDelta)
		}
	}
}

func TestCapabilityHas(t *testing.T) {
	c := CapScreenDelta | CapSink
	if !c.Has(CapScreenDelta) || !c.Has(CapSink) || !c.Has(CapScreenDelta|CapSink) {
		t.Error("Has misses present flags")
	}
	if c.Has(CapObserver) || c.Has(CapScreenDelta|CapObserver) {
		t.Error("Has reports absent flags")
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
	ctor := func(cfg Config) Detector { return NewGrid(cfg) }
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
