// Allocation regression gates (ASCY4 carried to Go): the paper's fourth
// pattern demands that memory management never put waiting on the hot path;
// the Go equivalent is that the hot path must not allocate, because every
// allocation is deferred waiting — GC work that throttles exactly the
// multi-core scaling Figures 4–9 measure. These gates pin Search at zero
// steady-state allocations per operation for every family — linked lists,
// hash tables, skip lists, and BSTs, with and without SSMEM node recycling
// — so a regression shows up as a test failure, not as a slow drift in the
// figure benchmarks.
package ascylib

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// searchGateAlgos: at least one representative per family plus every
// structure that gained SSMEM recycling in this PR (recycling adds epoch
// pins to the search path, so it must prove itself allocation-free too).
var searchGateAlgos = []struct {
	algo    string
	recycle bool
}{
	// Linked lists (plain and recycling).
	{"ll-lazy", false},
	{"ll-lazy", true},
	{"ll-harris", false},
	{"ll-harris", true},
	{"ll-harris-opt", true},
	{"ll-michael", true},
	{"ll-pugh", false},
	// Hash tables.
	{"ht-clht-lb", false},
	{"ht-clht-lf", false},
	{"ht-urcu", false},
	{"ht-urcu-ssmem", false}, // recycles natively
	{"ht-java", false},
	// Skip lists (plain and recycling).
	{"sl-fraser", false},
	{"sl-fraser", true},
	{"sl-fraser-opt", true},
	{"sl-pugh", true},
	{"sl-herlihy", false},
	// BSTs.
	{"bst-tk", false},
	{"bst-natarajan", false},
	{"bst-ellen", false},
	{"bst-howley", false},
}

func TestSearchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under race instrumentation")
	}
	for _, tc := range searchGateAlgos {
		name := tc.algo
		if tc.recycle {
			name += "/recycle"
		}
		t.Run(name, func(t *testing.T) {
			opts := []core.Option{core.Capacity(128)}
			if tc.recycle {
				opts = append(opts, core.RecycleNodes(true))
			}
			s, err := core.New(tc.algo, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for k := core.Key(1); k <= 128; k++ {
				s.Insert(k, core.Value(k))
			}
			// Mix hits and misses; both must be allocation-free.
			var sink core.Value
			k := core.Key(1)
			if avg := testing.AllocsPerRun(400, func() {
				v, _ := s.Search(k)
				sink += v
				k = k%200 + 1
			}); avg != 0 {
				t.Fatalf("%s: Search allocates %.2f/op, want 0", name, avg)
			}
			_ = sink
		})
	}
}

// TestSearchZeroAllocStripedPools: the per-P striped pool fast path must
// keep the recycling search hit at zero allocations even after the pool has
// been churned from many goroutines — the regime where allocators have been
// parked across every stripe slot and the sync.Pool has been cleared by GC,
// so a Get that fell back to adoption (which allocates a lease scan) instead
// of its stripe slot would show up here as a nonzero allocs/op.
func TestSearchZeroAllocStripedPools(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under race instrumentation")
	}
	for _, algo := range []string{"ll-lazy", "sl-fraser-opt"} {
		t.Run(algo, func(t *testing.T) {
			s := core.MustNew(algo, core.Capacity(128), core.RecycleNodes(true))
			for k := core.Key(1); k <= 128; k++ {
				s.Insert(k, core.Value(k))
			}
			// Churn from many goroutines: registers several allocators with
			// the structure's pool and scatters them across stripe slots.
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						k := core.Key(i%128 + 1)
						s.Search(k)
						if i%16 == w {
							s.Remove(k)
							s.Insert(k, core.Value(k))
						}
					}
				}(w)
			}
			wg.Wait()
			var sink core.Value
			k := core.Key(1)
			for i := 0; i < 64; i++ { // park this goroutine's allocator in its slot
				s.Search(k)
			}
			if avg := testing.AllocsPerRun(400, func() {
				v, _ := s.Search(k)
				sink += v
				k = k%200 + 1
			}); avg != 0 {
				t.Fatalf("%s: striped-pool Search allocates %.2f/op, want 0", algo, avg)
			}
			_ = sink
		})
	}
}

// TestRemoveInsertSteadyStateRecycling: with SSMEM recycling on, a steady
// remove/insert churn of one key must stop allocating once the allocator's
// free list warms up — the structural point of recycling. The lists' links
// are tagged words, so a cycle allocates nothing but the node, and the node
// comes back from the free list; the epoch bookkeeping (batch stamping every
// threshold frees, snapshot slices) amortizes below one allocation a cycle.
func TestRemoveInsertSteadyStateRecycling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under race instrumentation")
	}
	for _, algo := range []string{"ll-lazy", "ll-michael", "ll-harris", "ll-harris-opt"} {
		t.Run(algo, func(t *testing.T) {
			s := core.MustNew(algo, core.RecycleNodes(true), core.RecycleThreshold(16))
			for k := core.Key(1); k <= 64; k++ {
				s.Insert(k, core.Value(k))
			}
			// Warm the free lists.
			for i := 0; i < 200; i++ {
				s.Remove(32)
				s.Insert(32, 32)
			}
			if avg := removeInsertAllocs(s, 32); avg != 0 {
				t.Fatalf("%s: remove+insert cycle allocates %.2f, want 0", algo, avg)
			}
		})
	}
}

// TestRemoveInsertAllocs: without recycling a remove+insert cycle pays for
// the new node and nothing else — a CAS swaps a tagged word and allocates
// nothing. A Fraser node is two allocations (node and tower), a list node
// one, and ht-harris inherits its buckets' cost.
func TestRemoveInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under race instrumentation")
	}
	for _, tc := range []struct {
		algo string
		want float64
	}{
		{"ll-harris", 1},
		{"ll-harris-opt", 1},
		{"ll-michael", 1},
		{"ht-harris", 1},
		{"sl-fraser", 2},
		{"sl-fraser-opt", 2},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			s := core.MustNew(tc.algo, core.Capacity(64))
			for k := core.Key(1); k <= 64; k++ {
				s.Insert(k, core.Value(k))
			}
			if avg := removeInsertAllocs(s, 32); avg != tc.want {
				t.Fatalf("%s: remove+insert cycle allocates %.2f, want %v", tc.algo, avg, tc.want)
			}
		})
	}
}

// removeInsertAllocs is the average allocation count of one Remove(k) +
// Insert(k) cycle on s.
func removeInsertAllocs(s core.Set, k core.Key) float64 {
	return testing.AllocsPerRun(400, func() {
		s.Remove(k)
		s.Insert(k, core.Value(k))
	})
}
