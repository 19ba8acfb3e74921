package ascylib_test

import (
	"testing"

	ascylib "repro"
	"repro/internal/settest"
)

// TestCatalogueMatchesPaper pins the library's inventory to the paper:
// Table 1's algorithms, the ASCY re-engineered variants, and the two
// from-scratch designs must all be registered.
func TestCatalogueMatchesPaper(t *testing.T) {
	want := []string{
		// Linked lists (Table 1 + harris-opt + ASCY3 ablations).
		"ll-async", "ll-coupling", "ll-pugh", "ll-pugh-no", "ll-lazy",
		"ll-lazy-no", "ll-copy", "ll-copy-no", "ll-harris", "ll-harris-opt", "ll-michael",
		// Hash tables.
		"ht-async", "ht-coupling", "ht-pugh", "ht-pugh-no", "ht-lazy",
		"ht-lazy-no", "ht-copy", "ht-copy-no", "ht-urcu", "ht-urcu-ssmem",
		"ht-java", "ht-java-no", "ht-tbb", "ht-harris",
		"ht-clht-lb", "ht-clht-lf",
		// Skip lists.
		"sl-async", "sl-pugh", "sl-herlihy", "sl-fraser", "sl-fraser-opt",
		// BSTs.
		"bst-async-int", "bst-async-ext", "bst-bronson", "bst-drachsler",
		"bst-ellen", "bst-howley", "bst-natarajan", "bst-tk",
	}
	have := map[string]ascylib.Algorithm{}
	for _, a := range ascylib.Algorithms() {
		have[a.Name] = a
	}
	for _, name := range want {
		if _, ok := have[name]; !ok {
			t.Errorf("catalogue missing %s", name)
		}
	}
	if len(have) != len(want) {
		t.Errorf("catalogue has %d algorithms, inventory lists %d", len(have), len(want))
	}
}

func TestFacadeConstructAndUse(t *testing.T) {
	for _, a := range ascylib.Algorithms() {
		s, err := ascylib.New(a.Name, ascylib.Capacity(64))
		if err != nil {
			t.Fatalf("New(%s): %v", a.Name, err)
		}
		if !s.Insert(10, 100) {
			t.Fatalf("%s: insert failed", a.Name)
		}
		v, ok := s.Search(10)
		if !ok || v != 100 {
			t.Fatalf("%s: search = (%d, %v)", a.Name, v, ok)
		}
		if v, ok := s.Remove(10); !ok || v != 100 {
			t.Fatalf("%s: remove = (%d, %v)", a.Name, v, ok)
		}
		if s.Size() != 0 {
			t.Fatalf("%s: size %d after removal", a.Name, s.Size())
		}
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := ascylib.New("ht-not-real"); err == nil {
		t.Fatal("New on unknown algorithm did not error")
	}
}

func TestNewDesignsAreASCYFlagged(t *testing.T) {
	for _, name := range []string{"ht-clht-lb", "ht-clht-lf", "bst-tk", "ll-harris-opt", "sl-fraser-opt", "ht-urcu-ssmem"} {
		found := false
		for _, a := range ascylib.Algorithms() {
			if a.Name == name {
				found = true
				if !a.ASCY {
					t.Errorf("%s not flagged ASCY-compliant", name)
				}
			}
		}
		if !found {
			t.Errorf("%s missing", name)
		}
	}
}

func TestAsyncBoundsFlaggedUnsafe(t *testing.T) {
	for _, a := range ascylib.Algorithms() {
		isAsync := a.Name == "ll-async" || a.Name == "ht-async" || a.Name == "sl-async" ||
			a.Name == "bst-async-int" || a.Name == "bst-async-ext"
		if isAsync == a.Safe {
			t.Errorf("%s: Safe=%v inconsistent with async status %v", a.Name, a.Safe, isAsync)
		}
	}
}

// TestHeapBound runs the bounded-heap soak over every linearizable entry:
// under sustained churn on a fixed key range, the live heap must plateau.
// Subtests run one at a time, because the soak reads the process-wide heap.
func TestHeapBound(t *testing.T) {
	for _, a := range ascylib.Algorithms() {
		if !a.Safe {
			continue
		}
		t.Run(a.Name, func(t *testing.T) { settest.HeapBound(t, a.Name) })
	}
}
