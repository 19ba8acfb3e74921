package settest

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"

	"repro/internal/core"
)

// Bounded-heap soak parameters. Warm rounds fill the structure to its
// steady size; every later round must plateau within heapGrowthBound of the
// warm peak.
const (
	heapRounds      = 16
	heapWarmRounds  = 4
	heapKeys        = 1024
	heapGrowthBound = 1.25
)

// HeapBound is the bounded-heap soak: it churns one instance of the named
// algorithm with uniform 50/50 inserts and removes on keys 1..1024 from one
// goroutine, forces a GC after each round, and fails if the live heap of a
// later round exceeds the warm rounds' peak by more than heapGrowthBound.
// Every structure's nodes belong to the Go GC (ht-urcu-ssmem's to SSMEM), so
// a structure that keeps growing here retains dead nodes it has unlinked
// logically but not physically.
//
// The global math/rand source is seeded first, as the benchmark's traced
// runs do, so skip-list tower heights are the same on every run. The soak
// reads the process-wide live heap, so it must not run in parallel with
// other tests.
func HeapBound(t *testing.T, name string) {
	t.Helper()
	ops := 20000
	if testing.Short() {
		// Small enough for -race, where the lists crawl; still large
		// enough that sl-fraser-opt's former upper-level retention
		// reads 2.4x here.
		ops = 8000
	}
	rand.Seed(1) //nolint:staticcheck // the only way to fix a source the structures pick implicitly
	s, err := core.New(name, core.Capacity(heapKeys))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var live [heapRounds]uint64
	for i := range live {
		for j := 0; j < ops; j++ {
			k := core.Key(r.Intn(heapKeys) + 1)
			if r.Intn(2) == 0 {
				s.Insert(k, core.Value(k))
			} else {
				s.Remove(k)
			}
		}
		runtime.GC()
		metrics.Read(sample)
		live[i] = sample[0].Value.Uint64()
	}
	runtime.KeepAlive(s) // the structure must stay reachable through the last GC
	warm, later := slices.Max(live[:heapWarmRounds]), slices.Max(live[heapWarmRounds:])
	if float64(later) > heapGrowthBound*float64(warm) {
		t.Errorf("%s: live heap grew to %.2fx of the warm peak (%d → %d bytes; bound %.2fx); per round: %v",
			name, float64(later)/float64(warm), warm, later, heapGrowthBound, live)
	}
}
