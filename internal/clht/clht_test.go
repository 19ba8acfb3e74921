package clht

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/core"
	"repro/internal/pad"
	"repro/internal/perf"
	"repro/internal/settest"
)

func TestConformance(t *testing.T) {
	settest.RunRegistered(t, "ht-clht-lb")
	settest.RunRegistered(t, "ht-clht-lf")
	// Tiny tables force chains and (for LB) resizes.
	t.Run("tiny-lb", func(t *testing.T) {
		settest.Run(t, true, func() core.Set {
			cfg := core.DefaultConfig()
			cfg.Buckets = 2
			return NewLB(cfg)
		})
	})
	t.Run("tiny-lf", func(t *testing.T) {
		settest.Run(t, true, func() core.Set {
			cfg := core.DefaultConfig()
			cfg.Buckets = 2
			return NewLF(cfg)
		})
	})
}

// TestBucketIsOneCacheLine pins the headline design property: a bucket is
// exactly 64 bytes — 1 concurrency word, 3 keys, 3 values, 1 next pointer.
func TestBucketIsOneCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(bucket{}); s != 64 {
		t.Fatalf("bucket size = %d bytes, want 64", s)
	}
	if entriesPerBucket != 3 {
		t.Fatalf("entriesPerBucket = %d, want 3", entriesPerBucket)
	}
}

// TestTableCountOffSearchLine: the overflow count, written by inserts that
// link a bucket, shares no cache line with buckets and mask, which every
// search reads, wherever the table is allocated.
func TestTableCountOffSearchLine(t *testing.T) {
	var tab table
	end := unsafe.Offsetof(tab.mask) + unsafe.Sizeof(tab.mask)
	if gap := unsafe.Offsetof(tab.overflow) - end; gap < pad.CacheLineSize {
		t.Fatalf("overflow sits %d bytes after mask, want >= %d", gap, pad.CacheLineSize)
	}
}

// TestSnapshotAlgebra exercises the snapshot_t helpers: version increments on
// every transition, single-slot effect, no cross-slot interference.
func TestSnapshotAlgebra(t *testing.T) {
	var w uint64
	for i := 0; i < entriesPerBucket; i++ {
		if snapState(w, i) != slotFree {
			t.Fatalf("slot %d of zero word not free", i)
		}
	}
	w1 := snapWith(w, 1, slotInserting)
	if snapVersion(w1) != 1 {
		t.Fatalf("version after one transition = %d", snapVersion(w1))
	}
	if snapState(w1, 1) != slotInserting {
		t.Fatal("slot 1 not INSERTING")
	}
	if snapState(w1, 0) != slotFree || snapState(w1, 2) != slotFree {
		t.Fatal("transition leaked into neighbouring slots")
	}
	w2 := snapWith(w1, 1, slotValid)
	if snapVersion(w2) != 2 || snapState(w2, 1) != slotValid {
		t.Fatalf("second transition wrong: v=%d st=%d", snapVersion(w2), snapState(w2, 1))
	}
	// Wrap-around of the 32-bit version.
	wHigh := snapWith(uint64(0xFFFFFFFF), 0, slotValid)
	if snapVersion(wHigh) != 0 {
		t.Fatalf("version wrap: got %d, want 0", snapVersion(wHigh))
	}
	if snapState(wHigh, 0) != slotValid {
		t.Fatal("state lost on version wrap")
	}
}

func TestSnapshotQuick(t *testing.T) {
	f := func(w uint64, slot uint8, st uint8) bool {
		i := int(slot) % entriesPerBucket
		s := uint64(st) % 3
		nw := snapWith(w, i, s)
		if snapState(nw, i) != s {
			return false
		}
		if snapVersion(nw) != snapVersion(w)+1 {
			return false
		}
		for j := 0; j < entriesPerBucket; j++ {
			if j != i && snapState(nw, j) != snapState(w, j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestLBResizeGrows forces chain overflow and checks the table expanded and
// kept every element.
func TestLBResizeGrows(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Buckets = 4
	h := NewLB(cfg)
	before := h.Buckets()
	const n = 1000
	for k := core.Key(1); k <= n; k++ {
		if !h.Insert(k, core.Value(k)) {
			t.Fatalf("insert(%d) failed", k)
		}
	}
	if h.Buckets() <= before {
		t.Fatalf("table did not grow: %d -> %d buckets", before, h.Buckets())
	}
	for k := core.Key(1); k <= n; k++ {
		v, ok := h.Search(k)
		if !ok || v != core.Value(k) {
			t.Fatalf("search(%d) = (%d,%v) after resize", k, v, ok)
		}
	}
	if got := h.Size(); got != n {
		t.Fatalf("size = %d, want %d", got, n)
	}
}

// reachableOverflow counts the overflow buckets linked into t: every
// bucket on a chain except its head.
func reachableOverflow(t *table) int64 {
	var n int64
	for i := range t.buckets {
		for b := t.buckets[i].next.Load(); b != nil; b = b.next.Load() {
			n++
		}
	}
	return n
}

// TestLBCollidingKeysDoNotGrowTable: keys that all land in one bucket make
// only that chain long. A per-chain resize trigger would double the table
// on each new overflow line until the keys split (at 2^23 buckets here,
// 512 MiB), so one bucket's worth of chosen keys would set the table size.
func TestLBCollidingKeysDoNotGrowTable(t *testing.T) {
	const n, bits = 45, 22
	const low = 1<<bits - 1
	target := mix(1) & low
	keys := []core.Key{1}
	for k := core.Key(2); len(keys) < n; k++ {
		if mix(k)&low == target {
			keys = append(keys, k)
		}
	}
	cfg := core.DefaultConfig()
	cfg.Buckets = 1024
	h := NewLB(cfg)
	for i, k := range keys {
		if !h.Insert(k, core.Value(i+1)) {
			t.Fatalf("insert(%d) failed", k)
		}
		if got := h.Buckets(); got != 1024 {
			t.Fatalf("after %d colliding keys the table has %d buckets, want 1024", i+1, got)
		}
	}
	for i, k := range keys {
		if v, ok := h.Search(k); !ok || v != core.Value(i+1) {
			t.Fatalf("search(%d) = (%d,%v), want (%d,true)", k, v, ok, i+1)
		}
	}
	if got, want := h.tab.Load().overflow.Load(), reachableOverflow(h.tab.Load()); got != want {
		t.Fatalf("overflow count %d, %d overflow buckets linked", got, want)
	}
}

// TestLBResizeByLoad pins the growth point on random keys: one key per
// bucket stays put, two keys per bucket double the table exactly once
// (it passes 1/16 overflowing buckets near 1.5 keys per bucket, and the
// doubled table is back at one). After the resize, the new table's
// overflow count must equal its linked overflow buckets, so the rehash
// counted what it linked.
func TestLBResizeByLoad(t *testing.T) {
	for _, tc := range []struct{ keys, want int }{
		{1 << 16, 1 << 16},
		{1 << 17, 1 << 17},
	} {
		cfg := core.DefaultConfig()
		cfg.Buckets = 1 << 16
		h := NewLB(cfg)
		rng := rand.New(rand.NewSource(48))
		for n := 0; n < tc.keys; {
			k := core.Key(rng.Uint64())
			if k == 0 || k == math.MaxUint64 {
				continue
			}
			if h.Insert(k, core.Value(k)) {
				n++
			}
		}
		if got := h.Buckets(); got != tc.want {
			t.Fatalf("%d keys into %d buckets: table has %d buckets, want %d",
				tc.keys, cfg.Buckets, got, tc.want)
		}
		tab := h.tab.Load()
		if got, want := tab.overflow.Load(), reachableOverflow(tab); got != want {
			t.Fatalf("%d keys: overflow count %d, %d overflow buckets linked", tc.keys, got, want)
		}
		if got := h.Size(); got != tc.keys {
			t.Fatalf("size = %d, want %d", got, tc.keys)
		}
	}
}

// TestLBSteadyChurnKeepsTable: replacing keys at a steady load of one key
// per bucket must not grow the table. A remove that empties an overflow
// bucket unlinks it and takes it off the overflow count, so the count
// follows the live keys; were emptied buckets left linked, the count would
// only grow and the table would double round after round. A quarter of the
// removes go through Update's delete path.
func TestLBSteadyChurnKeepsTable(t *testing.T) {
	const n, rounds = 1 << 16, 16
	cfg := core.DefaultConfig()
	cfg.Buckets = n
	h := NewLB(cfg)
	rng := rand.New(rand.NewSource(31))
	fresh := func() core.Key {
		for {
			k := core.Key(rng.Uint64())
			if k != 0 && k != math.MaxUint64 && h.Insert(k, core.Value(k)) {
				return k
			}
		}
	}
	live := make([]core.Key, n)
	for i := range live {
		live[i] = fresh()
	}
	drop := func(old core.Value, _ bool) (core.Value, bool) { return old, false }
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			k := live[j]
			var v core.Value
			if i%4 == 0 {
				v, _ = h.Update(k, drop) // returns the removed value
			} else {
				v, _ = h.Remove(k)
			}
			if v != core.Value(k) {
				t.Fatalf("round %d: remove(%d) found nothing", r, k)
			}
			live[j] = fresh()
		}
		tab := h.tab.Load()
		if got := h.Buckets(); got != n {
			t.Fatalf("after round %d the table has %d buckets, want %d (%d overflow buckets, growth point %d)",
				r, got, n, tab.overflow.Load(), tab.growAt)
		}
		if got, want := tab.overflow.Load(), reachableOverflow(tab); got != want {
			t.Fatalf("round %d: overflow count %d, %d overflow buckets linked", r, got, want)
		}
		if got := h.Size(); got != n {
			t.Fatalf("round %d: size = %d, want %d", r, got, n)
		}
	}
}

// TestLBOverflowCountConcurrent: inserters racing each other and the
// resizes they trigger, then removers and re-inserters racing each other's
// unlinks, leave the served table's overflow count equal to its linked
// overflow buckets, and every key findable.
func TestLBOverflowCountConcurrent(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Buckets = 16
	h := NewLB(cfg)
	const workers, per, rounds = 4, 5000, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := func(i int) core.Key { return core.Key(i*workers + w + 1) } // disjoint across workers
			for i := 0; i < per; i++ {
				h.Insert(key(i), core.Value(key(i)))
			}
			for r := 0; r < rounds; r++ {
				for i := 0; i < per; i++ {
					h.Remove(key(i))
				}
				for i := 0; i < per; i++ {
					h.Insert(key(i), core.Value(key(i)))
				}
			}
		}(w)
	}
	wg.Wait()
	tab := h.tab.Load()
	if got, want := tab.overflow.Load(), reachableOverflow(tab); got != want {
		t.Fatalf("overflow count %d, %d overflow buckets linked", got, want)
	}
	if tab.overflow.Load() > tab.growAt {
		t.Fatalf("served table of %d buckets holds %d overflow buckets, past its growth point %d",
			len(tab.buckets), tab.overflow.Load(), tab.growAt)
	}
	if got := h.Size(); got != workers*per {
		t.Fatalf("size = %d, want %d", got, workers*per)
	}
}

// TestLFNoDuplicateSlots checks the CLHT-LF uniqueness invariant after a
// same-key insert storm: at most one VALID slot holds any key.
func TestLFNoDuplicateSlots(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Buckets = 2 // maximize collisions
	h := NewLF(cfg)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				k := core.Key(i%7 + 1)
				if w%2 == 0 {
					h.Insert(k, core.Value(w))
				} else {
					h.Remove(k)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[uint64]int{}
	for i := range h.t.buckets {
		for b := &h.t.buckets[i]; b != nil; b = b.next.Load() {
			s := b.conc.Load()
			for j := 0; j < entriesPerBucket; j++ {
				if snapState(s, j) == slotValid {
					seen[b.key[j].Load()]++
				}
			}
		}
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("key %d occupies %d VALID slots", k, n)
		}
	}
}

// TestASCY3CLHT: failed updates on CLHT-LB perform no locks or stores.
func TestASCY3CLHT(t *testing.T) {
	h := NewLB(core.DefaultConfig())
	for k := core.Key(2); k <= 100; k += 2 {
		h.Insert(k, 0)
	}
	ctx := &perf.Ctx{}
	for k := core.Key(2); k <= 100; k += 2 {
		if h.InsertCtx(ctx, k, 1) {
			t.Fatal("duplicate insert succeeded")
		}
	}
	for k := core.Key(1); k <= 99; k += 2 {
		if _, ok := h.RemoveCtx(ctx, k); ok {
			t.Fatal("remove of absent key succeeded")
		}
	}
	if n := ctx.Count(perf.EvLock) + ctx.Count(perf.EvStore) + ctx.Count(perf.EvCAS); n != 0 {
		t.Errorf("ASCY3 violated: %d coherence events on failed updates", n)
	}
}

func TestLBOverflowChains(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Buckets = 1
	h := NewLB(cfg)
	h.tab.Load().growAt = math.MaxInt64 // disable resize; force chaining
	const n = 50
	for k := core.Key(1); k <= n; k++ {
		if !h.Insert(k, core.Value(k*3)) {
			t.Fatalf("insert(%d) failed", k)
		}
	}
	if got := h.Size(); got != n {
		t.Fatalf("size = %d, want %d", got, n)
	}
	for k := core.Key(1); k <= n; k++ {
		v, ok := h.Search(k)
		if !ok || v != core.Value(k*3) {
			t.Fatalf("search(%d) = (%d,%v)", k, v, ok)
		}
	}
	for k := core.Key(1); k <= n; k++ {
		if _, ok := h.Remove(k); !ok {
			t.Fatalf("remove(%d) failed", k)
		}
	}
	if got := h.Size(); got != 0 {
		t.Fatalf("size after drain = %d", got)
	}
}
