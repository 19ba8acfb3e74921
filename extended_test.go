package ascylib_test

import (
	"testing"

	ascylib "repro"
	"repro/internal/core"
	"repro/internal/settest"
)

// TestExtendedConformance runs the v2 conformance suite (Update atomicity,
// GetOrInsert insert-once, Range contracts, fallback-vs-native parity) for
// every registry entry.
func TestExtendedConformance(t *testing.T) {
	for _, a := range ascylib.Algorithms() {
		settest.RunExtendedRegistered(t, a.Name, ascylib.Capacity(256))
	}
}

// TestCapabilitiesConsistent pins the capability matrix to the registry
// metadata: the Ordered flag must match a native Range implementation,
// every algorithm must be enumerable, and the headline native operations
// the redesign added must actually be native.
func TestCapabilitiesConsistent(t *testing.T) {
	for _, a := range ascylib.Algorithms() {
		c := a.Caps()
		if !c.NativeForEach {
			t.Errorf("%s: no native ForEach; the surface cannot be served", a.Name)
		}
		if a.Ordered != c.NativeRange {
			t.Errorf("%s: registry Ordered=%v but native Range=%v", a.Name, a.Ordered, c.NativeRange)
		}
		wantOrdered := a.Structure != ascylib.HashTable
		if a.Ordered != wantOrdered {
			t.Errorf("%s: Ordered=%v, want %v for structure %s", a.Name, a.Ordered, wantOrdered, a.Structure)
		}
	}
	for _, name := range []string{"ht-clht-lb", "ht-clht-lf"} {
		a, ok := core.Get(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if !a.Caps().NativeGetOrInsert {
			t.Errorf("%s: GetOrInsert should be native (one bucket pass)", name)
		}
	}
	if a, _ := core.Get("ht-clht-lb"); !a.Caps().NativeUpdate {
		t.Error("ht-clht-lb: Update should be native (in-place under the bucket lock)")
	}
}

// TestConfigValidation pins the option-validation behaviour the v2 New
// gained: nonsense configurations fail construction instead of misbehaving.
func TestConfigValidation(t *testing.T) {
	if _, err := ascylib.New("ht-clht-lb", ascylib.Capacity(0)); err == nil {
		t.Error("Capacity(0) accepted")
	}
	if _, err := ascylib.New("ht-clht-lb", ascylib.Capacity(-4)); err == nil {
		t.Error("Capacity(-4) accepted")
	}
	if _, err := ascylib.New("sl-fraser-opt", ascylib.MaxLevel(0)); err == nil {
		t.Error("MaxLevel(0) accepted")
	}
	if _, err := ascylib.New("sl-fraser-opt", ascylib.MaxLevel(65)); err == nil {
		t.Error("MaxLevel(65) accepted")
	}
	if s, err := ascylib.New("sl-fraser-opt", ascylib.MaxLevel(16), ascylib.Capacity(64)); err != nil || s == nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

// TestNewExtendedFacade smoke-tests the facade-level constructors.
func TestNewExtendedFacade(t *testing.T) {
	e, err := ascylib.NewExtended("ht-clht-lf", ascylib.Capacity(64))
	if err != nil {
		t.Fatal(err)
	}
	if v, inserted := e.GetOrInsert(3, 30); !inserted || v != 30 {
		t.Fatalf("GetOrInsert = (%d,%v)", v, inserted)
	}
	if v, ok := e.Update(3, func(old ascylib.Value, ok bool) (ascylib.Value, bool) {
		return old + 1, true
	}); !ok || v != 31 {
		t.Fatalf("Update = (%d,%v)", v, ok)
	}
	if _, err := ascylib.NewExtended("nope"); err == nil {
		t.Fatal("NewExtended on unknown algorithm did not error")
	}
	s := ascylib.MustNew("sl-fraser-opt")
	if o, native := ascylib.OrderedOf(s); o == nil || !native {
		t.Fatalf("OrderedOf(skiplist) = (%v, %v), want native", o, native)
	}
	if o, native := ascylib.OrderedOf(e); o == nil || native {
		t.Fatalf("OrderedOf(hash table) should be a non-native fallback, got native=%v", native)
	}
}
