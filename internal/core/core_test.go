package core

import (
	"strings"
	"testing"
)

type fakeSet struct{}

func (fakeSet) Search(Key) (Value, bool) { return 0, false }
func (fakeSet) Insert(Key, Value) bool   { return false }
func (fakeSet) Remove(Key) (Value, bool) { return 0, false }
func (fakeSet) Size() int                { return 0 }

func TestRegistryRoundTrip(t *testing.T) {
	Register(Algorithm{
		Name:      "test-fake",
		Structure: LinkedList,
		Class:     Seq,
		Desc:      "test entry",
		New:       func(cfg Config) Set { return fakeSet{} },
	})
	a, ok := Get("test-fake")
	if !ok || a.Desc != "test entry" {
		t.Fatal("registered algorithm not found")
	}
	s, err := New("test-fake")
	if err != nil || s == nil {
		t.Fatalf("New failed: %v", err)
	}
	if _, err := New("no-such-algo"); err == nil {
		t.Fatal("New on unknown name did not error")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(Algorithm{Name: "test-dup", New: func(Config) Set { return fakeSet{} }})
	Register(Algorithm{Name: "test-dup", New: func(Config) Set { return fakeSet{} }})
}

func TestNilConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil constructor did not panic")
		}
	}()
	Register(Algorithm{Name: "test-nil"})
}

func TestOptions(t *testing.T) {
	cfg := DefaultConfig()
	for _, o := range []Option{Capacity(9), MaxLevel(5)} {
		o(&cfg)
	}
	if cfg.Buckets != 9 || cfg.MaxLevel != 5 {
		t.Fatalf("options not applied: %+v", cfg)
	}
}

func TestDefaultsSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Buckets <= 0 || cfg.MaxLevel <= 0 || !cfg.ReadOnlyFail || cfg.AsyncStepLimit <= 0 {
		t.Fatalf("suspicious defaults: %+v", cfg)
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.Structure > b.Structure || (a.Structure == b.Structure && a.Name >= b.Name) {
			t.Fatalf("All() not sorted at %d: %s/%s then %s/%s", i, a.Structure, a.Name, b.Structure, b.Name)
		}
	}
}

func TestByStructureFilters(t *testing.T) {
	for _, s := range Structures() {
		for _, a := range ByStructure(s) {
			if a.Structure != s {
				t.Fatalf("ByStructure(%s) returned %s algorithm %s", s, a.Structure, a.Name)
			}
		}
	}
}

func TestMustNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(error).Error(), "unknown") {
			t.Fatal("MustNew on unknown name did not panic usefully")
		}
	}()
	MustNew("definitely-not-registered")
}
