package bst

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/settest"
)

func TestConformance(t *testing.T) {
	for _, name := range []string{
		"bst-async-int", "bst-async-ext", "bst-tk", "bst-natarajan",
		"bst-ellen", "bst-howley", "bst-drachsler", "bst-bronson",
	} {
		settest.RunRegistered(t, name)
	}
}

// TestTKStructure inserts 1..200 and removes the even keys, then checks the
// tree's shape with checkExternalOrder and that Search finds exactly the
// odd keys.
func TestTKStructure(t *testing.T) {
	tr := NewTK(core.DefaultConfig())
	for k := core.Key(1); k <= 200; k++ {
		if !tr.Insert(k, core.Value(k)) {
			t.Fatalf("insert(%d) failed", k)
		}
	}
	for k := core.Key(2); k <= 200; k += 2 {
		if _, ok := tr.Remove(k); !ok {
			t.Fatalf("remove(%d) failed", k)
		}
	}
	checkExternalOrder(t, tr.groot.left.Load(), 0, sentinelKey)
	for k := core.Key(1); k <= 200; k++ {
		_, ok := tr.Search(k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("search(%d) = %v, want %v", k, ok, want)
		}
	}
}

// checkExternalOrder walks the subtree at n, whose keys must lie in
// [lo, hi): every node has zero or two children (a leaf is a node whose
// left child is nil), and each leaf's key lies between its routers' keys.
func checkExternalOrder(t *testing.T, n *tkNode, lo, hi core.Key) {
	t.Helper()
	if n.isLeaf() {
		if n.right.Load() != nil {
			t.Fatalf("node %d has a right child but no left child", n.key)
		}
		if n.key != sentinelKey && (n.key < lo || n.key >= hi) {
			t.Fatalf("leaf %d outside (%d, %d)", n.key, lo, hi)
		}
		return
	}
	if n.right.Load() == nil {
		t.Fatalf("router %d has no right child", n.key)
	}
	checkExternalOrder(t, n.left.Load(), lo, n.key)
	checkExternalOrder(t, n.right.Load(), n.key, hi)
}

// TestTKNodeLayout pins BST-TK's node to the sequential external node's
// size.
func TestTKNodeLayout(t *testing.T) {
	tk, se := unsafe.Sizeof(tkNode{}), unsafe.Sizeof(seNode{})
	if tk != 32 || se != 32 {
		t.Fatalf("sizeof(tkNode) = %d, sizeof(seNode) = %d, want 32 for both: "+
			"a hop touches one cache line only when the node's size class divides 64", tk, se)
	}
}

// TestTKConcurrentStructure churns a 64-key hot range from 4 goroutines,
// then walks the tree. Every router must have two children (the invariant
// the nil-left leaf test rests on), leaves must be in order, each leaf must
// hold the value inserted for its key (a lock operation reaching a leaf
// would overwrite it), and both sentinel leaves must be intact.
func TestTKConcurrentStructure(t *testing.T) {
	tr := NewTK(core.DefaultConfig())
	present := settest.Churn(t, tr, 4, 64, 20000, 1)
	checkExternalOrder(t, tr.groot.left.Load(), 0, sentinelKey)
	var leaves []*tkNode
	var walk func(n *tkNode)
	walk = func(n *tkNode) {
		if n.isLeaf() {
			leaves = append(leaves, n)
			return
		}
		walk(n.left.Load())
		walk(n.right.Load())
	}
	walk(tr.groot.left.Load())
	last := leaves[len(leaves)-1]
	leaves = leaves[:len(leaves)-1]
	for _, s := range []*tkNode{last, tr.groot.right.Load()} {
		if !s.isLeaf() || s.key != sentinelKey || s.val() != 0 {
			t.Fatalf("sentinel leaf = {key %d, val %d, leaf %v}, want {%d, 0, true}",
				s.key, s.val(), s.isLeaf(), sentinelKey)
		}
	}
	n := 0
	for _, p := range present {
		if p {
			n++
		}
	}
	if len(leaves) != n {
		t.Fatalf("%d non-sentinel leaves, want %d present keys", len(leaves), n)
	}
	for _, l := range leaves {
		if int(l.key) >= len(present) || !present[l.key] {
			t.Fatalf("leaf %d is not a present key", l.key)
		}
		if l.val() != core.Value(l.key) {
			t.Fatalf("leaf %d holds value %d, want %d", l.key, l.val(), l.key)
		}
	}
}

// TestTKLockAccounting checks the paper's headline property: one lock per
// successful insert, two per successful remove (§6.2).
func TestTKLockAccounting(t *testing.T) {
	tr := NewTK(core.DefaultConfig())
	ctx := &perf.Ctx{}
	const n = 500
	for k := core.Key(1); k <= n; k++ {
		tr.InsertCtx(ctx, k, 0)
	}
	if got := ctx.Count(perf.EvLock); got != n {
		t.Fatalf("locks for %d uncontended inserts = %d, want %d", n, got, n)
	}
	ctx.Reset()
	for k := core.Key(1); k <= n; k++ {
		tr.RemoveCtx(ctx, k)
	}
	if got := ctx.Count(perf.EvLock); got != 2*n {
		t.Fatalf("locks for %d uncontended removes = %d, want %d", n, got, 2*n)
	}
}

// TestNatarajanAtomicsPerUpdate checks §5/Figure 7's accounting: natarajan
// uses about two atomic operations per uncontended successful update.
func TestNatarajanAtomicsPerUpdate(t *testing.T) {
	tr := NewNatarajan(core.DefaultConfig())
	ctx := &perf.Ctx{}
	const n = 500
	for k := core.Key(1); k <= n; k++ {
		tr.InsertCtx(ctx, k, 0)
	}
	if got := ctx.Count(perf.EvCAS); got != n {
		t.Fatalf("CAS for %d uncontended inserts = %d, want %d (1 per insert)", n, got, n)
	}
	ctx.Reset()
	for k := core.Key(1); k <= n; k++ {
		tr.RemoveCtx(ctx, k)
	}
	got := ctx.Count(perf.EvCAS)
	if got != 3*n {
		// injection + tag + splice = 3 CASes; the paper's "two atomic
		// operations" counts the tag fetch-and-or separately.
		t.Fatalf("CAS for %d uncontended removes = %d, want %d", n, got, 3*n)
	}
}

// TestASCY1BSTSearchReadOnly: searches of the ASCY-compliant trees do no
// stores, CAS, or locks.
func TestASCY1BSTSearchReadOnly(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    core.Instrumented
	}{
		{"tk", NewTK(core.DefaultConfig())},
		{"natarajan", NewNatarajan(core.DefaultConfig())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for k := core.Key(1); k <= 300; k++ {
				tc.s.Insert(k, 0)
			}
			for k := core.Key(3); k <= 300; k += 3 {
				tc.s.Remove(k)
			}
			ctx := &perf.Ctx{}
			for k := core.Key(1); k <= 320; k++ {
				tc.s.SearchCtx(ctx, k)
			}
			n := ctx.Count(perf.EvStore) + ctx.Count(perf.EvCAS) +
				ctx.Count(perf.EvCASFail) + ctx.Count(perf.EvLock)
			if n != 0 {
				t.Errorf("search performed %d coherence events; ASCY1 requires 0", n)
			}
		})
	}
}

// TestHowleySearchHelps constructs the helping window deterministically: a
// node carrying a MARK operation record (as if a remover stalled before the
// splice). Howley's find must help complete the excision — the ASCY1
// violation the paper charges it for — whereas natarajan's search must not
// synchronize at all in the same situation.
func TestHowleySearchHelps(t *testing.T) {
	h := NewHowley(core.DefaultConfig())
	for k := core.Key(1); k <= 10; k++ {
		h.Insert(k, core.Value(k))
	}
	// Find the node for key 10 (a leaf-ish node) and mark it.
	_, _, curr, currOp, res := h.find(nil, 10, h.root)
	if res != hwFound {
		t.Fatal("key 10 not found")
	}
	if !curr.left.Load().absent() && !curr.right.Load().absent() {
		t.Skip("key 10 grew two children; pick a leaf for the planted mark")
	}
	if !curr.op.CompareAndSwap(currOp, &hwOp{state: hwMark}) {
		t.Fatal("could not plant MARK op")
	}
	ctx := &perf.Ctx{}
	if _, ok := h.SearchCtx(ctx, 10); ok {
		t.Fatal("marked node reported found")
	}
	if ctx.Count(perf.EvHelp) == 0 {
		t.Fatal("howley search did not help the pending operation")
	}
	if ctx.Count(perf.EvCAS) == 0 {
		t.Fatal("howley search helped without CASing (impossible)")
	}
}

// TestNatarajanSearchIgnoresFlags: plant a flagged edge (a deletion whose
// owner stalled after injection); the search must traverse past it without
// a single synchronization event.
func TestNatarajanSearchIgnoresFlags(t *testing.T) {
	tr := NewNatarajan(core.DefaultConfig())
	for k := core.Key(1); k <= 10; k++ {
		tr.Insert(k, core.Value(k))
	}
	rec := tr.seek(nil, 5)
	if rec.leaf.key != 5 {
		t.Fatal("seek did not land on 5")
	}
	parent := rec.parent
	addr := parent.edge(core.Key(5) < parent.key)
	if !addr.CompareAndSwap(rec.leafEdge, &nmEdge{n: rec.leaf, flag: true}) {
		t.Fatal("could not plant flag")
	}
	ctx := &perf.Ctx{}
	for k := core.Key(1); k <= 10; k++ {
		tr.SearchCtx(ctx, k)
	}
	if n := ctx.Count(perf.EvCAS) + ctx.Count(perf.EvCASFail) + ctx.Count(perf.EvStore) + ctx.Count(perf.EvHelp); n != 0 {
		t.Fatalf("natarajan search synchronized %d times across a flagged edge; ASCY1 requires 0", n)
	}
	// The flagged deletion is completed by the next UPDATE that runs into
	// it (helping belongs to updates under ASCY).
	if tr.Insert(5, 99) {
		t.Fatal("insert of flagged-but-present key succeeded")
	}
}

// TestEllenSearchIgnoresInfoRecords: plant an IFLAG on an internal node (an
// insert whose owner stalled); ellen's *search* must pass it untouched —
// helping in ellen belongs to updates ("updates help outstanding operations
// on the nodes that they intend to modify", Table 1) — while a conflicting
// update must help complete it.
func TestEllenHelpOnUpdateNotSearch(t *testing.T) {
	tr := NewEllen(core.DefaultConfig())
	for k := core.Key(1); k <= 8; k++ {
		tr.Insert(k, core.Value(k))
	}
	// Build a stalled insert of key 9 by hand: flag the parent without
	// completing the child swap.
	gp, p, l, _, pupdate := tr.search(nil, 9)
	_ = gp
	nl := newELeaf(9, 90)
	var ni *eNode
	if core.Key(9) < l.key {
		ni = newEInternal(l.key)
		ni.left.Store(nl)
		ni.right.Store(l)
	} else {
		ni = newEInternal(9)
		ni.left.Store(l)
		ni.right.Store(nl)
	}
	op := &eIInfo{p: p, newInternal: ni, l: l}
	op.flagUpd = &eUpd{state: eIFlag, info: op}
	if !p.update.CompareAndSwap(pupdate, op.flagUpd) {
		t.Fatal("could not plant IFLAG")
	}
	// Searches pass through without helping (and don't see key 9 yet:
	// the stalled insert has not linked its subtree).
	ctx := &perf.Ctx{}
	if _, ok := tr.SearchCtx(ctx, 9); ok {
		t.Fatal("key 9 visible before the insert's child CAS")
	}
	if n := ctx.Count(perf.EvCAS) + ctx.Count(perf.EvHelp) + ctx.Count(perf.EvStore); n != 0 {
		t.Fatalf("ellen search performed %d events while passing a flag", n)
	}
	// An update in the flagged region must help the stalled insert to
	// completion first — afterwards key 9 is present.
	if tr.Insert(9, 91) {
		t.Fatal("insert(9) succeeded; it should have helped the stalled insert of 9 and failed")
	}
	if v, ok := tr.Search(9); !ok || v != 90 {
		t.Fatalf("after helping, search(9) = (%d,%v), want (90,true)", v, ok)
	}
}

// TestBronsonRoutingNodeLifecycle: removing a node with two children demotes
// it to a routing node (partial externality); a later insert of the same key
// revives it in place.
func TestBronsonRoutingNodeLifecycle(t *testing.T) {
	tr := NewBronson(core.DefaultConfig())
	// 20 is the root of a small balanced region with two children.
	for _, k := range []core.Key{20, 10, 30, 5, 15, 25, 35} {
		tr.Insert(k, core.Value(k*10))
	}
	if v, ok := tr.Remove(20); !ok || v != 200 {
		t.Fatalf("remove(20) = (%d,%v)", v, ok)
	}
	if _, ok := tr.Search(20); ok {
		t.Fatal("demoted routing node still reported found")
	}
	// The node object remains as a router; other keys stay reachable.
	for _, k := range []core.Key{5, 10, 15, 25, 30, 35} {
		if _, ok := tr.Search(k); !ok {
			t.Fatalf("key %d lost after routing demotion", k)
		}
	}
	// Reviving insert: same key, new value, no structural change.
	if !tr.Insert(20, 999) {
		t.Fatal("revival insert failed")
	}
	if v, ok := tr.Search(20); !ok || v != 999 {
		t.Fatalf("revived search(20) = (%d,%v)", v, ok)
	}
	if tr.Size() != 7 {
		t.Fatalf("size = %d, want 7", tr.Size())
	}
}

// TestBronsonSearchWaitsOnChanging: a reader that meets a node whose version
// has the CHANGING bit set must wait for it to clear (Table 1: "a
// search/parse can block waiting for a concurrent update to complete").
func TestBronsonSearchWaitsOnChanging(t *testing.T) {
	tr := NewBronson(core.DefaultConfig())
	for _, k := range []core.Key{20, 10, 30} {
		tr.Insert(k, core.Value(k))
	}
	// Set CHANGING on the node for 10 by hand.
	n := tr.root.right.Load() // 20
	child := n.left.Load()    // 10
	child.version.Add(bvChanging)
	done := make(chan struct{})
	go func() {
		ctx := &perf.Ctx{}
		tr.SearchCtx(ctx, 5) // must pass through 10's edge checks
		if ctx.Count(perf.EvWait) == 0 {
			t.Error("search did not record a wait on a CHANGING node")
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("search completed while the node was CHANGING")
	case <-time.After(100 * time.Millisecond):
	}
	child.version.Store((child.version.Load() + bvStep) &^ bvChanging)
	select {
	case <-done:
	case <-time.After(30 * time.Second): // generous: -race + parallel packages on small hosts
		t.Fatal("search did not resume after CHANGING cleared")
	}
}

// TestDrachslerTransplantKeepsOrder: force the two-children removal path
// repeatedly and audit the logical list and tree agreement.
func TestDrachslerTransplantKeepsOrder(t *testing.T) {
	tr := NewDrachsler(core.DefaultConfig())
	// Perfectly balanced insert order: every internal node has 2 children.
	var build func(lo, hi core.Key)
	build = func(lo, hi core.Key) {
		if lo > hi {
			return
		}
		mid := (lo + hi) / 2
		tr.Insert(mid, core.Value(mid))
		build(lo, mid-1)
		build(mid+1, hi)
	}
	build(1, 63)
	// Remove internal nodes (two children) in root-first order.
	for _, k := range []core.Key{32, 16, 48, 8, 24, 40, 56} {
		if _, ok := tr.Remove(k); !ok {
			t.Fatalf("remove(%d) failed", k)
		}
	}
	// List order must be strictly ascending and agree with Search.
	prev := core.Key(0)
	count := 0
	for n := tr.head.succ.Load(); n != tr.tail; n = n.succ.Load() {
		if n.marked.Load() {
			continue
		}
		if n.key <= prev {
			t.Fatalf("list order violated: %d after %d", n.key, prev)
		}
		prev = n.key
		count++
	}
	if count != 63-7 {
		t.Fatalf("list has %d live nodes, want %d", count, 63-7)
	}
	for k := core.Key(1); k <= 63; k++ {
		removed := k == 32 || k == 16 || k == 48 || k == 8 || k == 24 || k == 40 || k == 56
		if _, ok := tr.Search(k); ok == removed {
			t.Fatalf("search(%d) = %v after transplants", k, ok)
		}
	}
}
