package skiplist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/settest"
)

func TestConformance(t *testing.T) {
	for _, name := range []string{
		"sl-async", "sl-pugh", "sl-herlihy", "sl-fraser", "sl-fraser-opt",
	} {
		settest.RunRegistered(t, name)
	}
}

func TestRandomLevelDistribution(t *testing.T) {
	const samples = 200000
	counts := make([]int, maxHeight+1)
	for i := 0; i < samples; i++ {
		h := randomLevel(20)
		if h < 1 || h > 20 {
			t.Fatalf("level %d out of range", h)
		}
		counts[h]++
	}
	// P(h=1) = 1/2: allow generous slack.
	if f := float64(counts[1]) / samples; f < 0.45 || f > 0.55 {
		t.Fatalf("P(level=1) = %.3f, want ~0.5", f)
	}
	if f := float64(counts[2]) / samples; f < 0.20 || f > 0.30 {
		t.Fatalf("P(level=2) = %.3f, want ~0.25", f)
	}
}

// TestFraserTowerContainment: every key linked at an upper level must be
// linked (unmarked) at level 0 after quiescence.
func TestFraserTowerContainment(t *testing.T) {
	for _, opt := range []bool{false, true} {
		l := NewFraser(core.DefaultConfig(), opt)
		for k := core.Key(1); k <= 500; k++ {
			l.Insert(k, core.Value(k))
		}
		for k := core.Key(2); k <= 500; k += 2 {
			l.Remove(k)
		}
		level0 := map[core.Key]bool{}
		for curr := l.head.next[0].Load().N; curr != l.tail; {
			ref := curr.next[0].Load()
			if !ref.Marked {
				level0[curr.key] = true
			}
			curr = ref.N
		}
		for lvl := 1; lvl < l.maxLevel; lvl++ {
			for curr := l.head.next[lvl].Load().N; curr != nil && curr != l.tail; {
				ref := curr.next[lvl].Load()
				if !ref.Marked && !level0[curr.key] {
					t.Fatalf("opt=%v: key %d at level %d but not live at level 0", opt, curr.key, lvl)
				}
				curr = ref.N
			}
		}
	}
}

// TestHerlihySortedLevel0 checks level-0 ordering after churn.
func TestHerlihySortedLevel0(t *testing.T) {
	l := NewHerlihy(core.DefaultConfig())
	for k := core.Key(1); k <= 300; k++ {
		l.Insert(k, 0)
	}
	for k := core.Key(3); k <= 300; k += 3 {
		l.Remove(k)
	}
	prev := core.Key(0)
	for curr := l.head.next[0].Load(); curr.key != tailKey; curr = curr.next[0].Load() {
		if curr.key <= prev {
			t.Fatalf("order violated: %d after %d", curr.key, prev)
		}
		prev = curr.key
	}
}

// TestASCY12SkipListParse: compliant skip lists' searches do no stores; the
// optimized fraser parse does not restart.
func TestASCY12SkipListParse(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    core.Instrumented
	}{
		{"pugh", NewPugh(core.DefaultConfig())},
		{"herlihy", NewHerlihy(core.DefaultConfig())},
		{"fraser-opt", NewFraser(core.DefaultConfig(), true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for k := core.Key(1); k <= 200; k++ {
				tc.s.Insert(k, 0)
			}
			for k := core.Key(2); k <= 200; k += 2 {
				tc.s.Remove(k)
			}
			ctx := &perf.Ctx{}
			for k := core.Key(1); k <= 220; k++ {
				tc.s.SearchCtx(ctx, k)
			}
			n := ctx.Count(perf.EvStore) + ctx.Count(perf.EvCAS) +
				ctx.Count(perf.EvCASFail) + ctx.Count(perf.EvLock) + ctx.Count(perf.EvRestart)
			if n != 0 {
				t.Errorf("search performed %d synchronization events; ASCY1 requires 0", n)
			}
		})
	}
}

// TestFraserSearchCleansUp: the original fraser physically unlinks marked
// towers during searches; fraser-opt leaves them but still answers correctly.
func TestFraserSearchCleansUp(t *testing.T) {
	l := NewFraser(core.DefaultConfig(), false)
	for k := core.Key(1); k <= 100; k++ {
		l.Insert(k, 0)
	}
	for k := core.Key(2); k <= 100; k += 2 {
		l.Remove(k)
	}
	for k := core.Key(1); k <= 100; k++ {
		l.Search(k)
	}
	for curr := l.head.next[0].Load().N; curr != l.tail; {
		ref := curr.next[0].Load()
		if ref.Marked {
			t.Fatalf("marked node %d still reachable after cleaning searches", curr.key)
		}
		curr = ref.N
	}
}
