package linkedlist

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mark"
	"repro/internal/perf"
	"repro/internal/settest"
)

func TestConformance(t *testing.T) {
	for _, name := range []string{
		"ll-async", "ll-coupling", "ll-pugh", "ll-pugh-no", "ll-lazy",
		"ll-lazy-no", "ll-copy", "ll-copy-no", "ll-harris", "ll-harris-opt",
		"ll-michael",
	} {
		settest.RunRegistered(t, name)
	}
}

// sorted walks any list through the public API by probing; instead each
// structural test below uses the concrete type.

func TestLazySortedAfterChurn(t *testing.T) {
	l := NewLazy(core.DefaultConfig())
	churn(l)
	prev := core.Key(0)
	for n := l.head.next.Load(); n.key != tailKey; n = n.next.Load() {
		if n.key <= prev {
			t.Fatalf("order violated: %d after %d", n.key, prev)
		}
		prev = n.key
	}
}

func TestHarrisNoMarkedReachableAtQuiescence(t *testing.T) {
	l := NewHarris(core.DefaultConfig(), false)
	churn(l)
	// harris unlinks marked spans during searches; after a full scan via
	// search for every key, no marked node should remain reachable.
	for k := core.Key(1); k <= 64; k++ {
		l.Search(k)
	}
	for n := l.head.next.Load().N; n != l.tail; {
		ref := n.next.Load()
		if ref.Marked {
			t.Fatalf("marked node with key %d still reachable after cleanup scans", n.key)
		}
		n = ref.N
	}
}

func TestHarrisOptLeavesMarkedButFindsAll(t *testing.T) {
	l := NewHarris(core.DefaultConfig(), true)
	for k := core.Key(1); k <= 100; k++ {
		l.Insert(k, core.Value(k))
	}
	for k := core.Key(2); k <= 100; k += 2 {
		l.Remove(k)
	}
	for k := core.Key(1); k <= 100; k++ {
		_, ok := l.Search(k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("search(%d) = %v, want %v", k, ok, want)
		}
	}
}

func TestPughBacklinkRecovery(t *testing.T) {
	l := NewPugh(core.DefaultConfig())
	for k := core.Key(1); k <= 10; k++ {
		l.Insert(k, core.Value(k))
	}
	// Grab the node for key 5, then remove it; its next must point back
	// to a predecessor so stranded parses recover.
	var n5 *pughNode
	for n := l.head.next.Load(); n.key != tailKey; n = n.next.Load() {
		if n.key == 5 {
			n5 = n
		}
	}
	if n5 == nil {
		t.Fatal("node 5 not found")
	}
	l.Remove(5)
	if !n5.deleted.Load() {
		t.Fatal("node 5 not flagged deleted")
	}
	back := n5.next.Load()
	if back.key >= 5 {
		t.Fatalf("deleted node's next points forward (key %d); want back-pointer", back.key)
	}
	// A parse that starts from the stale node must still find key 6.
	curr := n5
	for curr.key < 6 || curr.deleted.Load() {
		curr = curr.next.Load()
	}
	if curr.key != 6 {
		t.Fatalf("recovered parse landed on %d, want 6", curr.key)
	}
}

func TestCopySnapshotImmutable(t *testing.T) {
	l := NewCopy(core.DefaultConfig())
	for k := core.Key(1); k <= 10; k++ {
		l.Insert(k, core.Value(k))
	}
	snap := l.snap.Load()
	l.Insert(11, 11)
	l.Remove(3)
	if len(snap.keys) != 10 {
		t.Fatalf("old snapshot mutated: len %d", len(snap.keys))
	}
	if _, ok := snap.find(3); !ok {
		t.Fatal("old snapshot lost key 3")
	}
}

// TestASCY1SearchDoesNoStores verifies the machine-checkable part of ASCY1
// on the compliant lists: a search performs no stores, CAS, locks, or
// restarts.
func TestASCY1SearchDoesNoStores(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    core.Instrumented
	}{
		{"lazy", NewLazy(core.DefaultConfig())},
		{"pugh", NewPugh(core.DefaultConfig())},
		{"harris-opt", NewHarris(core.DefaultConfig(), true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for k := core.Key(1); k <= 100; k++ {
				tc.s.Insert(k, 0)
			}
			for k := core.Key(2); k <= 100; k += 3 {
				tc.s.Remove(k)
			}
			ctx := &perf.Ctx{}
			for k := core.Key(1); k <= 120; k++ {
				tc.s.SearchCtx(ctx, k)
			}
			for _, ev := range []perf.Event{perf.EvStore, perf.EvCAS, perf.EvCASFail, perf.EvLock, perf.EvRestart} {
				if n := ctx.Count(ev); n != 0 {
					t.Errorf("ASCY1 violated: search did %d %v", n, ev)
				}
			}
		})
	}
}

// TestASCY3FailedUpdateReadOnly verifies that with ReadOnlyFail, unsuccessful
// updates perform no stores or locks, and that the "-no" variants do.
func TestASCY3FailedUpdateReadOnly(t *testing.T) {
	mk := func(roFail bool) []core.Instrumented {
		cfg := core.DefaultConfig()
		cfg.ReadOnlyFail = roFail
		return []core.Instrumented{NewLazy(cfg), NewPugh(cfg), NewCopy(cfg)}
	}
	prime := func(s core.Set) {
		for k := core.Key(2); k <= 100; k += 2 {
			s.Insert(k, 0)
		}
	}
	for _, s := range mk(true) {
		prime(s)
		ctx := &perf.Ctx{}
		for k := core.Key(2); k <= 100; k += 2 {
			if s.InsertCtx(ctx, k, 0) {
				t.Fatal("duplicate insert succeeded")
			}
		}
		for k := core.Key(1); k <= 99; k += 2 {
			if _, ok := s.RemoveCtx(ctx, k); ok {
				t.Fatal("remove of absent key succeeded")
			}
		}
		if n := ctx.Count(perf.EvLock) + ctx.Count(perf.EvStore) + ctx.Count(perf.EvCAS); n != 0 {
			t.Errorf("%T: ASCY3 violated: failed updates did %d coherence events", s, n)
		}
	}
	for _, s := range mk(false) {
		prime(s)
		ctx := &perf.Ctx{}
		for k := core.Key(2); k <= 100; k += 2 {
			s.InsertCtx(ctx, k, 0)
		}
		if ctx.Count(perf.EvLock) == 0 {
			t.Errorf("%T: -no variant took no locks on failed updates", s)
		}
	}
}

// churn applies a deterministic single-threaded mix followed by a brief
// concurrent mix, leaving the structure in a nontrivial state.
func churn(s core.Set) {
	for k := core.Key(1); k <= 64; k++ {
		s.Insert(k, core.Value(k))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := core.Key(i%64 + 1)
				if (i+w)%2 == 0 {
					s.Insert(k, core.Value(k))
				} else {
					s.Remove(k)
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkLazySearchHit(b *testing.B) {
	l := NewLazy(core.DefaultConfig())
	for k := core.Key(1); k <= 1024; k++ {
		l.Insert(k, core.Value(k))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Search(core.Key(i%1024 + 1))
	}
}

// TestHarrisSearchHelpsCleanup constructs the ASCY1-violation window
// deterministically: a logically deleted (marked) node is planted as if a
// remover had been preempted between its two CASes. The original harris
// search must physically unlink it (stores on the search path); the
// harris-opt search must leave it alone and still answer correctly.
func TestHarrisSearchHelpsCleanup(t *testing.T) {
	plant := func(l *Harris) {
		for k := core.Key(1); k <= 10; k++ {
			l.Insert(k, core.Value(k))
		}
		// Mark node 5 logically deleted without unlinking it —
		// exactly a remover paused between CAS 1 and CAS 2.
		for n := l.head.next.Load().N; n != l.tail; n = n.next.Load().N {
			if n.key == 5 {
				ref := n.next.Load()
				n.next.Store(mark.Ref[lfNode]{N: ref.N, Marked: true})
				return
			}
		}
		t.Fatal("node 5 not found")
	}

	orig := NewHarris(core.DefaultConfig(), false)
	plant(orig)
	ctx := &perf.Ctx{}
	if _, ok := orig.SearchCtx(ctx, 5); ok {
		t.Fatal("marked node reported found")
	}
	if ctx.Count(perf.EvCleanup) == 0 {
		t.Fatal("harris search did not clean up the marked node (ASCY1 violation not exercised)")
	}
	for n := orig.head.next.Load().N; n != orig.tail; n = n.next.Load().N {
		if n.key == 5 {
			t.Fatal("marked node still reachable after harris search")
		}
	}

	opt := NewHarris(core.DefaultConfig(), true)
	plant(opt)
	ctx = &perf.Ctx{}
	if _, ok := opt.SearchCtx(ctx, 5); ok {
		t.Fatal("marked node reported found by harris-opt")
	}
	if n := ctx.Count(perf.EvCleanup) + ctx.Count(perf.EvCAS) + ctx.Count(perf.EvStore); n != 0 {
		t.Fatalf("harris-opt search performed %d events; ASCY1 requires 0", n)
	}
	// Neighbours remain reachable through the marked node.
	if _, ok := opt.Search(6); !ok {
		t.Fatal("key 6 lost behind a marked node")
	}
}

// TestMichaelSearchUnlinksMarked: same planted window; michael's find must
// unlink the single marked node as it traverses.
func TestMichaelSearchUnlinksMarked(t *testing.T) {
	l := NewMichael(core.DefaultConfig())
	for k := core.Key(1); k <= 10; k++ {
		l.Insert(k, core.Value(k))
	}
	for n := l.head.next.Load().N; n != l.tail; n = n.next.Load().N {
		if n.key == 5 {
			ref := n.next.Load()
			n.next.Store(mark.Ref[lfNode]{N: ref.N, Marked: true})
		}
	}
	ctx := &perf.Ctx{}
	if _, ok := l.SearchCtx(ctx, 7); !ok {
		t.Fatal("key 7 not found")
	}
	if ctx.Count(perf.EvCleanup) == 0 {
		t.Fatal("michael search did not unlink the marked node")
	}
	for n := l.head.next.Load().N; n != l.tail; n = n.next.Load().N {
		if n.key == 5 {
			t.Fatal("marked node still linked after michael search")
		}
	}
}

// TestTinyRangeChurnRegression: the lock-free lists CAS tagged words by
// value, which is ABA-safe because the GC never reuses an address some
// goroutine still holds. Churn a tiny key range hard with many workers, so
// every CAS races marks and unlinks on the same few nodes, then audit
// presence against Search and the list order.
func TestTinyRangeChurnRegression(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, tc := range []struct {
		name string
		mk   func() (s core.Set, head, tail *lfNode)
	}{
		{"harris", func() (core.Set, *lfNode, *lfNode) { l := NewHarris(cfg, false); return l, l.head, l.tail }},
		{"harris-opt", func() (core.Set, *lfNode, *lfNode) { l := NewHarris(cfg, true); return l, l.head, l.tail }},
		{"michael", func() (core.Set, *lfNode, *lfNode) { l := NewMichael(cfg); return l, l.head, l.tail }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 4; round++ {
				s, head, tail := tc.mk()
				present := settest.Churn(t, s, 8, 6, 3000, int64(round*100))
				settest.AuditOrder(t, present, func(visit func(core.Key, bool)) {
					for n := head.next.Load().N; n != tail; {
						r := n.next.Load()
						visit(n.key, !r.Marked)
						n = r.N
					}
				})
			}
		})
	}
}
