package skiplist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/settest"
)

// TestFraserOptChurnRegression guards against the marked-ref parse bug: the
// optimistic parse can hand an update a ref read from a predecessor that was
// fully removed during the level descent; CASing such a ref used to lose
// inserts and admit duplicates. The test churns hard and then audits
// presence accounting and the level-0 structure.
func TestFraserOptChurnRegression(t *testing.T) {
	for round := 0; round < 6; round++ {
		l := NewFraser(core.DefaultConfig(), true)
		present := settest.Churn(t, l, 8, 64, 5000, int64(round*100))
		settest.AuditOrder(t, present, l.walkLevel0)
	}
}

// TestTinyRangeChurnRegression: Fraser's CASes compare tagged words by
// value, which is ABA-safe because the GC never reuses an address some
// goroutine still holds. Churn a tiny key range hard with many workers, so
// every CAS races marks and unlinks on the same few towers, then audit
// presence against Search and the level-0 order.
func TestTinyRangeChurnRegression(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxLevel = 4
	for _, opt := range []bool{false, true} {
		name := "fraser"
		if opt {
			name = "fraser-opt"
		}
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 4; round++ {
				l := NewFraser(cfg, opt)
				present := settest.Churn(t, l, 8, 6, 3000, int64(round*100))
				settest.AuditOrder(t, present, l.walkLevel0)
			}
		})
	}
}

// walkLevel0 visits every node linked at level 0, head to tail, with
// whether it is live (unmarked). Quiescent use only.
func (l *Fraser) walkLevel0(visit func(k core.Key, live bool)) {
	for n := l.head.next[0].Load().N; n != l.tail; {
		r := n.next[0].Load()
		visit(n.key, !r.Marked)
		n = r.N
	}
}
