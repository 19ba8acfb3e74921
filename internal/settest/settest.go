// Package settest is the conformance suite that every CSDS implementation in
// the library must pass. It checks the paper's set semantics (§2) —
// search/insert/remove with unique keys — sequentially against a model map,
// property-based via testing/quick, and under concurrency via invariants
// that hold for any linearizable implementation.
package settest

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// Factory builds a fresh empty set for one subtest.
type Factory func() core.Set

// Run executes the full conformance suite. safe must reflect the registry's
// Safe flag: unsynchronized structures (the async upper bounds) only get the
// sequential portion of the suite.
func Run(t *testing.T, safe bool, f Factory) {
	t.Helper()
	t.Run("EmptySearch", func(t *testing.T) { testEmptySearch(t, f) })
	t.Run("SingleElement", func(t *testing.T) { testSingleElement(t, f) })
	t.Run("DuplicateInsert", func(t *testing.T) { testDuplicateInsert(t, f) })
	t.Run("RemoveMissing", func(t *testing.T) { testRemoveMissing(t, f) })
	t.Run("ReinsertAfterRemove", func(t *testing.T) { testReinsert(t, f) })
	t.Run("BulkAscending", func(t *testing.T) { testBulk(t, f, genAscending) })
	t.Run("BulkDescending", func(t *testing.T) { testBulk(t, f, genDescending) })
	t.Run("BulkRandom", func(t *testing.T) { testBulk(t, f, genShuffled) })
	t.Run("Boundaries", func(t *testing.T) { testBoundaries(t, f) })
	t.Run("ValueFidelity", func(t *testing.T) { testValueFidelity(t, f) })
	t.Run("DrainAll", func(t *testing.T) { testDrain(t, f) })
	t.Run("ModelSequence", func(t *testing.T) { testModelSequence(t, f) })
	t.Run("QuickModel", func(t *testing.T) { testQuickModel(t, f) })
	t.Run("ChurnDrainCycles", func(t *testing.T) { testChurnDrainCycles(t, f) })
	if safe {
		t.Run("ConcurrentDisjointInserts", func(t *testing.T) { testDisjointInserts(t, f) })
		t.Run("ConcurrentOwnerRemove", func(t *testing.T) { testOwnerRemove(t, f) })
		t.Run("ConcurrentChurn", func(t *testing.T) { testChurn(t, f) })
		t.Run("ConcurrentReadersStable", func(t *testing.T) { testReadersStable(t, f) })
		t.Run("ConcurrentSingleKey", func(t *testing.T) { testSingleKey(t, f) })
		t.Run("ConcurrentDrainRace", func(t *testing.T) { testDrainRace(t, f) })
		t.Run("ConcurrentInterleavedRanges", func(t *testing.T) { testInterleavedRanges(t, f) })
	}
}

// testChurnDrainCycles exercises slot/garbage reuse paths: grow, drain to
// empty, and repeat; every cycle must behave like the first.
func testChurnDrainCycles(t *testing.T, f Factory) {
	s := f()
	for cycle := 0; cycle < 4; cycle++ {
		base := core.Value(cycle * 1000)
		for k := core.Key(1); k <= 100; k++ {
			if !s.Insert(k, base+core.Value(k)) {
				t.Fatalf("cycle %d: insert(%d) failed", cycle, k)
			}
		}
		if got := s.Size(); got != 100 {
			t.Fatalf("cycle %d: size = %d, want 100", cycle, got)
		}
		for k := core.Key(1); k <= 100; k++ {
			v, ok := s.Remove(k)
			if !ok || v != base+core.Value(k) {
				t.Fatalf("cycle %d: remove(%d) = (%d,%v)", cycle, k, v, ok)
			}
		}
		if got := s.Size(); got != 0 {
			t.Fatalf("cycle %d: size after drain = %d", cycle, got)
		}
	}
}

// testDrainRace: concurrent removers race over a full set; every key must be
// removed exactly once across all workers.
func testDrainRace(t *testing.T, f Factory) {
	s := f()
	const n = 2048
	for k := core.Key(1); k <= n; k++ {
		s.Insert(k, core.Value(k))
	}
	var removed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w + 7)))
			// Random order sweeps plus a final linear sweep.
			for i := 0; i < n; i++ {
				if _, ok := s.Remove(core.Key(r.Intn(n) + 1)); ok {
					removed.Add(1)
				}
			}
			for k := core.Key(1); k <= n; k++ {
				if _, ok := s.Remove(k); ok {
					removed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := removed.Load(); got != n {
		t.Fatalf("removed %d keys total, want exactly %d", got, n)
	}
	if got := s.Size(); got != 0 {
		t.Fatalf("size after concurrent drain = %d", got)
	}
}

// testInterleavedRanges: workers insert interleaved residue classes so that
// adjacent keys are always owned by different workers (maximizing
// neighbouring-node conflicts), then verify the union.
func testInterleavedRanges(t *testing.T, f Factory) {
	s := f()
	const workers = 4
	const perWorker = 600
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := core.Key(i*workers + w + 1)
				if !s.Insert(k, core.Value(w)) {
					t.Errorf("worker %d: insert(%d) failed", w, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := s.Size(); got != workers*perWorker {
		t.Fatalf("size = %d, want %d", got, workers*perWorker)
	}
	for k := core.Key(1); k <= workers*perWorker; k++ {
		v, ok := s.Search(k)
		if !ok || v != core.Value((int(k)-1)%workers) {
			t.Fatalf("search(%d) = (%d,%v)", k, v, ok)
		}
	}
	// Remove the interleaved classes from opposite ends concurrently.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := perWorker - 1; i >= 0; i-- {
				k := core.Key(i*workers + w + 1)
				if _, ok := s.Remove(k); !ok {
					t.Errorf("worker %d: remove(%d) failed", w, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Size(); got != 0 {
		t.Fatalf("size after interleaved drain = %d", got)
	}
}

// maxTestKey stays clear of the tail sentinel (MaxUint64).
const maxTestKey = core.Key(math.MaxUint64 - 1)

func testEmptySearch(t *testing.T, f Factory) {
	s := f()
	if _, ok := s.Search(42); ok {
		t.Fatal("search on empty set reported a hit")
	}
	if _, ok := s.Remove(42); ok {
		t.Fatal("remove on empty set succeeded")
	}
	if got := s.Size(); got != 0 {
		t.Fatalf("empty set size = %d", got)
	}
}

func testSingleElement(t *testing.T, f Factory) {
	s := f()
	if !s.Insert(7, 70) {
		t.Fatal("insert into empty set failed")
	}
	v, ok := s.Search(7)
	if !ok || v != 70 {
		t.Fatalf("search(7) = (%d, %v), want (70, true)", v, ok)
	}
	if _, ok := s.Search(6); ok {
		t.Fatal("search(6) hit on a set containing only 7")
	}
	if _, ok := s.Search(8); ok {
		t.Fatal("search(8) hit on a set containing only 7")
	}
	if got := s.Size(); got != 1 {
		t.Fatalf("size = %d, want 1", got)
	}
	v, ok = s.Remove(7)
	if !ok || v != 70 {
		t.Fatalf("remove(7) = (%d, %v), want (70, true)", v, ok)
	}
	if _, ok := s.Search(7); ok {
		t.Fatal("search found 7 after removal")
	}
}

func testDuplicateInsert(t *testing.T, f Factory) {
	s := f()
	if !s.Insert(5, 1) {
		t.Fatal("first insert failed")
	}
	if s.Insert(5, 2) {
		t.Fatal("duplicate insert succeeded")
	}
	if v, _ := s.Search(5); v != 1 {
		t.Fatalf("duplicate insert overwrote value: got %d, want 1", v)
	}
	if got := s.Size(); got != 1 {
		t.Fatalf("size after duplicate insert = %d, want 1", got)
	}
}

func testRemoveMissing(t *testing.T, f Factory) {
	s := f()
	s.Insert(10, 0)
	s.Insert(30, 0)
	for _, k := range []core.Key{5, 20, 40} {
		if _, ok := s.Remove(k); ok {
			t.Fatalf("remove(%d) succeeded on set {10,30}", k)
		}
	}
	if got := s.Size(); got != 2 {
		t.Fatalf("size = %d, want 2", got)
	}
}

func testReinsert(t *testing.T, f Factory) {
	s := f()
	for round := 0; round < 5; round++ {
		if !s.Insert(3, core.Value(round)) {
			t.Fatalf("round %d: insert failed", round)
		}
		v, ok := s.Remove(3)
		if !ok || v != core.Value(round) {
			t.Fatalf("round %d: remove = (%d, %v)", round, v, ok)
		}
	}
	if got := s.Size(); got != 0 {
		t.Fatalf("size = %d, want 0", got)
	}
}

func genAscending(n int) []core.Key {
	ks := make([]core.Key, n)
	for i := range ks {
		ks[i] = core.Key(2*i + 1)
	}
	return ks
}

func genDescending(n int) []core.Key {
	ks := genAscending(n)
	for i, j := 0, len(ks)-1; i < j; i, j = i+1, j-1 {
		ks[i], ks[j] = ks[j], ks[i]
	}
	return ks
}

func genShuffled(n int) []core.Key {
	ks := genAscending(n)
	r := rand.New(rand.NewSource(1))
	r.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

func testBulk(t *testing.T, f Factory, gen func(int) []core.Key) {
	const n = 256
	s := f()
	keys := gen(n)
	for _, k := range keys {
		if !s.Insert(k, core.Value(k)*10) {
			t.Fatalf("insert(%d) failed", k)
		}
	}
	if got := s.Size(); got != n {
		t.Fatalf("size = %d, want %d", got, n)
	}
	for _, k := range keys {
		v, ok := s.Search(k)
		if !ok || v != core.Value(k)*10 {
			t.Fatalf("search(%d) = (%d, %v)", k, v, ok)
		}
	}
	// Keys between inserted odd keys must be absent.
	for i := 0; i < n; i += 7 {
		if _, ok := s.Search(core.Key(2*i + 2)); ok {
			t.Fatalf("search(%d) hit an absent key", 2*i+2)
		}
	}
	// Remove every other key, verify the partition.
	for i, k := range keys {
		if i%2 == 0 {
			if _, ok := s.Remove(k); !ok {
				t.Fatalf("remove(%d) failed", k)
			}
		}
	}
	for i, k := range keys {
		_, ok := s.Search(k)
		if want := i%2 == 1; ok != want {
			t.Fatalf("after partial removal search(%d) = %v, want %v", k, ok, want)
		}
	}
	if got := s.Size(); got != n/2 {
		t.Fatalf("size = %d, want %d", got, n/2)
	}
}

func testBoundaries(t *testing.T, f Factory) {
	s := f()
	for _, k := range []core.Key{1, maxTestKey} {
		if !s.Insert(k, core.Value(k)) {
			t.Fatalf("insert(%d) failed", k)
		}
	}
	for _, k := range []core.Key{1, maxTestKey} {
		v, ok := s.Search(k)
		if !ok || v != core.Value(k) {
			t.Fatalf("search(%d) = (%d, %v)", k, v, ok)
		}
	}
	if _, ok := s.Search(2); ok {
		t.Fatal("search(2) hit")
	}
	for _, k := range []core.Key{1, maxTestKey} {
		if _, ok := s.Remove(k); !ok {
			t.Fatalf("remove(%d) failed", k)
		}
	}
	if got := s.Size(); got != 0 {
		t.Fatalf("size = %d, want 0", got)
	}
}

func testValueFidelity(t *testing.T, f Factory) {
	s := f()
	const n = 64
	for i := 1; i <= n; i++ {
		s.Insert(core.Key(i), core.Value(i*i))
	}
	for i := 1; i <= n; i++ {
		v, ok := s.Remove(core.Key(i))
		if !ok || v != core.Value(i*i) {
			t.Fatalf("remove(%d) = (%d, %v), want (%d, true)", i, v, ok, i*i)
		}
	}
}

func testDrain(t *testing.T, f Factory) {
	s := f()
	keys := genShuffled(300)
	for _, k := range keys {
		s.Insert(k, 0)
	}
	for _, k := range genShuffled(300) {
		if _, ok := s.Remove(k); !ok {
			t.Fatalf("drain: remove(%d) failed", k)
		}
	}
	if got := s.Size(); got != 0 {
		t.Fatalf("size after drain = %d", got)
	}
	for _, k := range keys[:32] {
		if _, ok := s.Search(k); ok {
			t.Fatalf("search(%d) hit after drain", k)
		}
	}
}

// testModelSequence replays a long pseudo-random op sequence against a model
// map and requires identical results op by op.
func testModelSequence(t *testing.T, f Factory) {
	s := f()
	model := map[core.Key]core.Value{}
	r := rand.New(rand.NewSource(7))
	const keyRange = 128
	for i := 0; i < 6000; i++ {
		k := core.Key(r.Intn(keyRange) + 1)
		switch r.Intn(3) {
		case 0:
			v := core.Value(i)
			want := false
			if _, in := model[k]; !in {
				model[k] = v
				want = true
			}
			if got := s.Insert(k, v); got != want {
				t.Fatalf("op %d: insert(%d) = %v, want %v", i, k, got, want)
			}
		case 1:
			wantV, want := model[k]
			if want {
				delete(model, k)
			}
			gotV, got := s.Remove(k)
			if got != want || (got && gotV != wantV) {
				t.Fatalf("op %d: remove(%d) = (%d,%v), want (%d,%v)", i, k, gotV, got, wantV, want)
			}
		default:
			wantV, want := model[k]
			gotV, got := s.Search(k)
			if got != want || (got && gotV != wantV) {
				t.Fatalf("op %d: search(%d) = (%d,%v), want (%d,%v)", i, k, gotV, got, wantV, want)
			}
		}
	}
	if got := s.Size(); got != len(model) {
		t.Fatalf("final size = %d, model has %d", got, len(model))
	}
}

// testQuickModel drives the set with testing/quick-generated op tapes.
func testQuickModel(t *testing.T, f Factory) {
	check := func(tape []uint16) bool {
		s := f()
		model := map[core.Key]core.Value{}
		for i, w := range tape {
			k := core.Key(w%97 + 1)
			op := (w / 97) % 3
			switch op {
			case 0:
				_, in := model[k]
				if s.Insert(k, core.Value(i)) == in {
					return false
				}
				if !in {
					model[k] = core.Value(i)
				}
			case 1:
				wantV, want := model[k]
				gotV, got := s.Remove(k)
				if got != want || (got && gotV != wantV) {
					return false
				}
				delete(model, k)
			default:
				wantV, want := model[k]
				gotV, got := s.Search(k)
				if got != want || (got && gotV != wantV) {
					return false
				}
			}
		}
		return s.Size() == len(model)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func testDisjointInserts(t *testing.T, f Factory) {
	s := f()
	const workers = 8
	const perWorker = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := core.Key(w*perWorker + 1)
			for i := core.Key(0); i < perWorker; i++ {
				if !s.Insert(base+i, core.Value(base+i)) {
					t.Errorf("worker %d: insert(%d) failed on a disjoint range", w, base+i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := s.Size(); got != workers*perWorker {
		t.Fatalf("size = %d, want %d", got, workers*perWorker)
	}
	for k := core.Key(1); k <= workers*perWorker; k++ {
		v, ok := s.Search(k)
		if !ok || v != core.Value(k) {
			t.Fatalf("search(%d) = (%d,%v) after disjoint inserts", k, v, ok)
		}
	}
}

// testOwnerRemove: if a worker's insert of the shared key succeeds, the key
// is present and no other worker removes it, so the same worker's remove
// must succeed and return the worker's own value.
func testOwnerRemove(t *testing.T, f Factory) {
	s := f()
	const workers = 8
	const rounds = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			myVal := core.Value(w + 1)
			for i := 0; i < rounds; i++ {
				if s.Insert(99, myVal) {
					v, ok := s.Remove(99)
					if !ok {
						t.Errorf("worker %d: remove failed after own successful insert", w)
						return
					}
					if v != myVal {
						t.Errorf("worker %d: removed value %d, want %d", w, v, myVal)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// testChurn runs a mixed workload over a small hot range and checks the
// per-key net-presence invariant at quiescence.
func testChurn(t *testing.T, f Factory) { Churn(t, f(), 8, 64, 5000, 1) }

// Churn runs workers goroutines of ops random Insert/Remove/Search calls
// each over keys [1, keys], worker w seeded with seed+w. At quiescence it
// checks that every key's net successful inserts minus removes is 0 or 1
// and agrees with Search, and that the present keys add up to Size. It
// returns present, indexed by key.
func Churn(t *testing.T, s core.Set, workers, keys, ops int, seed int64) (present []bool) {
	t.Helper()
	net := make([]atomic.Int64, keys+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; i < ops; i++ {
				k := core.Key(r.Intn(keys) + 1)
				switch r.Intn(3) {
				case 0:
					if s.Insert(k, core.Value(k)) {
						net[k].Add(1)
					}
				case 1:
					if _, ok := s.Remove(k); ok {
						net[k].Add(-1)
					}
				default:
					s.Search(k)
				}
			}
		}(w)
	}
	wg.Wait()
	present = make([]bool, keys+1)
	total := 0
	for k := core.Key(1); k <= core.Key(keys); k++ {
		n := net[k].Load()
		if n != 0 && n != 1 {
			t.Fatalf("key %d: net presence %d, want 0 or 1", k, n)
		}
		_, ok := s.Search(k)
		if ok != (n == 1) {
			t.Fatalf("key %d: search=%v but net presence=%d", k, ok, n)
		}
		if present[k] = n == 1; present[k] {
			total++
		}
	}
	if got := s.Size(); got != total {
		t.Fatalf("size = %d, want %d", got, total)
	}
	return present
}

// AuditOrder checks a quiescent walk of a list's bottom level against the
// keys Churn reports present: keys never decrease along the walk, the live
// (unmarked) ones strictly increase, and exactly the present keys are live.
// walk calls visit once per reachable node, head to tail.
func AuditOrder(t *testing.T, present []bool, walk func(visit func(k core.Key, live bool))) {
	t.Helper()
	var prev, prevLive core.Key
	seen := make([]bool, len(present))
	walk(func(k core.Key, live bool) {
		if k < prev {
			t.Fatalf("order violated: key %d after %d", k, prev)
		}
		prev = k
		if !live {
			return
		}
		if k <= prevLive {
			t.Fatalf("live key %d after live key %d", k, prevLive)
		}
		if int(k) >= len(present) || !present[k] {
			t.Fatalf("key %d is live but not present", k)
		}
		prevLive, seen[k] = k, true
	})
	for k, p := range present {
		if p && !seen[k] {
			t.Fatalf("key %d is present but not live on the bottom level", k)
		}
	}
}

// testReadersStable: keys outside the churn range must stay found while
// writers churn a disjoint range.
func testReadersStable(t *testing.T, f Factory) {
	s := f()
	const stable = 128
	for k := core.Key(1); k <= stable; k++ {
		s.Insert(k, core.Value(k))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w + 100)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := core.Key(stable + 1 + r.Intn(64))
				if r.Intn(2) == 0 {
					s.Insert(k, 0)
				} else {
					s.Remove(k)
				}
			}
		}(w)
	}
	for round := 0; round < 40; round++ {
		for k := core.Key(1); k <= stable; k += 9 {
			v, ok := s.Search(k)
			if !ok || v != core.Value(k) {
				close(stop)
				wg.Wait()
				t.Fatalf("stable key %d lost during churn: (%d,%v)", k, v, ok)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// testSingleKey hammers one key with inserts and removes from all workers
// and validates global accounting: successes alternate globally.
func testSingleKey(t *testing.T, f Factory) {
	s := f()
	const workers = 8
	const opsPerWorker = 4000
	var inserts, removes atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w + 42)))
			for i := 0; i < opsPerWorker; i++ {
				if r.Intn(2) == 0 {
					if s.Insert(77, 1) {
						inserts.Add(1)
					}
				} else {
					if _, ok := s.Remove(77); ok {
						removes.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	net := inserts.Load() - removes.Load()
	if net != 0 && net != 1 {
		t.Fatalf("net successful inserts-removes = %d, want 0 or 1", net)
	}
	_, ok := s.Search(77)
	if ok != (net == 1) {
		t.Fatalf("final presence %v inconsistent with net %d", ok, net)
	}
}

// RunRegistered is a convenience wrapper that pulls the algorithm from the
// core registry and names the subtest after it.
func RunRegistered(t *testing.T, name string, opts ...core.Option) {
	t.Helper()
	a, ok := core.Get(name)
	if !ok {
		t.Fatalf("algorithm %q not registered", name)
	}
	t.Run(name, func(t *testing.T) {
		if a.Safe {
			t.Parallel()
		}
		Run(t, a.Safe, func() core.Set {
			s, err := core.New(name, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
	})
}
