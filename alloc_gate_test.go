// Allocation regression gates (ASCY4 carried to Go): the paper's fourth
// pattern demands that memory management never put waiting on the hot path;
// the Go equivalent is that the hot path must not allocate, because every
// allocation is deferred waiting — GC work that throttles exactly the
// multi-core scaling Figures 4–9 measure. These gates pin Search at zero
// steady-state allocations per operation for every family — linked lists,
// hash tables, skip lists, and BSTs — so a regression shows up as a test failure, not as a slow drift in the
// figure benchmarks.
package ascylib

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ssmem"
)

// searchGateAlgos: at least one representative per family plus every
// entry a served workload or the paper's figures lean on.
var searchGateAlgos = []string{
	// Linked lists.
	"ll-lazy",
	"ll-harris",
	"ll-harris-opt",
	"ll-michael",
	"ll-pugh",
	// Hash tables.
	"ht-clht-lb",
	"ht-clht-lf",
	"ht-urcu",
	"ht-urcu-ssmem", // recycles its nodes through SSMEM
	"ht-java",
	// Skip lists.
	"sl-fraser",
	"sl-fraser-opt",
	"sl-pugh",
	"sl-herlihy",
	// BSTs.
	"bst-tk",
	"bst-natarajan",
	"bst-ellen",
	"bst-howley",
}

func TestSearchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under race instrumentation")
	}
	for _, algo := range searchGateAlgos {
		t.Run(algo, func(t *testing.T) {
			s, err := core.New(algo, core.Capacity(128))
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
				t.Fatalf("%s: Search allocates %.2f/op, want 0", algo, avg)
			}
			_ = sink
		})
	}
}

// TestSearchZeroAllocStripedPools: a search hit must stay at zero
// allocations after the structure has been churned from many goroutines.
// For ht-urcu-ssmem this is the per-P striped pool regime — allocators
// parked across every stripe slot and the sync.Pool cleared by GC — so a Get
// that fell back to adoption (which allocates a lease scan) instead of its
// stripe slot would show up here as a nonzero allocs/op. ll-lazy and
// sl-fraser-opt leave their nodes to the GC, so for them the churn must
// leave nothing behind that their search path pays for.
func TestSearchZeroAllocStripedPools(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under race instrumentation")
	}
	for _, algo := range []string{"ll-lazy", "sl-fraser-opt", "ht-urcu-ssmem"} {
		t.Run(algo, func(t *testing.T) {
			s := core.MustNew(algo, core.Capacity(128))
			for k := core.Key(1); k <= 128; k++ {
				s.Insert(k, core.Value(k))
			}
			// Churn from many goroutines: for ht-urcu-ssmem this registers
			// several allocators with the pool and scatters them across
			// stripe slots.
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
				t.Fatalf("%s: Search after churn allocates %.2f/op, want 0", algo, avg)
			}
			_ = sink
		})
	}
}

// TestRemoveInsertSteadyStateRecycling: once warmed up, a steady
// remove/insert churn of one key allocates only what the structure cannot
// take back. ht-urcu-ssmem recycles its nodes through SSMEM, so the node
// comes back from the free list and the epoch bookkeeping (batch stamping
// every threshold frees, snapshot slices) amortizes below one allocation a
// cycle: 0. The lists leave their nodes to the GC, so each cycle pays for
// exactly one new node and the warm-up must not have added anything to it.
func TestRemoveInsertSteadyStateRecycling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under race instrumentation")
	}
	for _, tc := range []struct {
		algo string
		want float64
	}{
		{"ll-harris", 1},
		{"ll-harris-opt", 1},
		{"ll-lazy", 1},
		{"ll-michael", 1},
		{"ht-urcu-ssmem", 0},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			s := core.MustNew(tc.algo, core.Capacity(64))
			for k := core.Key(1); k <= 64; k++ {
				s.Insert(k, core.Value(k))
			}
			// Warm up: past a few batches of the paper's 512-location
			// threshold.
			for i := 0; i < 4*ssmem.DefaultThreshold; i++ {
				s.Remove(32)
				s.Insert(32, 32)
			}
			if avg := removeInsertAllocs(s, 32); avg != tc.want {
				t.Fatalf("%s: remove+insert cycle allocates %.2f, want %v", tc.algo, avg, tc.want)
			}
		})
	}
}

// TestRemoveInsertAllocs: a GC-owned remove+insert cycle pays for the new
// node and nothing else — a CAS swaps a tagged word and allocates
// nothing. A Fraser node is two allocations (node and tower), a list node
// one, and ht-harris inherits its buckets' cost. A bst-tk insert allocates
// a leaf and a router; the count cannot see their size, so TestTKNodeLayout
// in internal/bst pins the bytes.
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
		{"bst-tk", 2},
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

// TestMapOverwriteAllocGate: overwriting a present key of a Map publishes
// one fresh immutable box through the entry's slot and touches nothing else,
// so it allocates exactly the box, for a uint64 value as for any other.
func TestMapOverwriteAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under race instrumentation")
	}
	for _, algo := range []string{"ht-clht-lb", "sl-fraser-opt"} {
		t.Run(algo, func(t *testing.T) {
			mapOverwriteAllocGate(t, MustNewMap[int, string](algo, Capacity(64)), "v", "w")
			mapOverwriteAllocGate(t, MustNewMap[int, uint64](algo, Capacity(64)), 1, 2)
		})
	}
}

// mapOverwriteAllocGate fills m with v, then requires that overwriting one
// key with w allocates exactly once and reads back w.
func mapOverwriteAllocGate[V comparable](t *testing.T, m *Map[int, V], v, w V) {
	t.Helper()
	for k := 0; k < 64; k++ {
		m.Put(k, v)
	}
	if avg := testing.AllocsPerRun(400, func() { m.Put(33, w) }); avg != 1 {
		t.Fatalf("Map[int, %T].Put overwrite allocates %.2f/op, want 1", v, avg)
	}
	if got, ok := m.Get(33); !ok || got != w {
		t.Fatalf("Get(33) = (%v, %v) after the overwrites, want %v", got, ok, w)
	}
}
