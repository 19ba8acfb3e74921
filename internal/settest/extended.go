// Conformance suite for the v2 operation surface (Extended + Ordered):
// Update atomicity under contention, GetOrInsert insert-once semantics,
// Range's sorted/duplicate-free contract under churn, and parity between an
// algorithm's native operations and the generic fallbacks in core. Every
// registry entry runs the whole suite (see RunExtendedRegistered): the
// operations are served natively or by fallback, and both paths must obey
// the same contracts.
package settest

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// RunExtended executes the v2 conformance suite. safe mirrors the registry
// Safe flag (unsynchronized structures only get the sequential portion);
// ordered mirrors the registry Ordered flag (asserting the native Range
// claim).
func RunExtended(t *testing.T, safe, ordered bool, f Factory) {
	t.Helper()
	t.Run("UpdateModel", func(t *testing.T) { testUpdateModel(t, f) })
	t.Run("UpdateLifecycle", func(t *testing.T) { testUpdateLifecycle(t, f) })
	t.Run("GetOrInsertSequential", func(t *testing.T) { testGetOrInsertSeq(t, f) })
	t.Run("ForEachModel", func(t *testing.T) { testForEachModel(t, f) })
	t.Run("ForEachEarlyStop", func(t *testing.T) { testForEachEarlyStop(t, f) })
	t.Run("RangeModel", func(t *testing.T) { testRangeModel(t, f, ordered) })
	t.Run("MinMax", func(t *testing.T) { testMinMax(t, f) })
	t.Run("FallbackParity", func(t *testing.T) { testFallbackParity(t, f) })
	if safe {
		t.Run("ConcurrentUpdateCounter", func(t *testing.T) { testUpdateCounter(t, f) })
		t.Run("ConcurrentUpdateManyKeys", func(t *testing.T) { testUpdateManyKeys(t, f) })
		t.Run("ConcurrentGetOrInsertOnce", func(t *testing.T) { testGetOrInsertOnce(t, f) })
		t.Run("ConcurrentRangeChurn", func(t *testing.T) { testRangeChurn(t, f) })
	}
}

// testUpdateModel replays a random tape of all five mutating operations
// against a model map.
func testUpdateModel(t *testing.T, f Factory) {
	s := f()
	e := core.Extend(s)
	model := map[core.Key]core.Value{}
	r := rand.New(rand.NewSource(11))
	const keyRange = 96
	for i := 0; i < 4000; i++ {
		k := core.Key(r.Intn(keyRange) + 1)
		switch r.Intn(5) {
		case 0: // plain insert
			_, in := model[k]
			if got := e.Insert(k, core.Value(i)); got == in {
				t.Fatalf("op %d: insert(%d) = %v with present=%v", i, k, got, in)
			}
			if !in {
				model[k] = core.Value(i)
			}
		case 1: // plain remove
			wantV, want := model[k]
			gotV, got := e.Remove(k)
			if got != want || (got && gotV != wantV) {
				t.Fatalf("op %d: remove(%d) = (%d,%v), want (%d,%v)", i, k, gotV, got, wantV, want)
			}
			delete(model, k)
		case 2: // update: increment-or-initialize
			old, in := model[k]
			want := old + 1
			if !in {
				want = core.Value(1000)
			}
			gotV, present := e.Update(k, func(v core.Value, ok bool) (core.Value, bool) {
				if !ok {
					return 1000, true
				}
				return v + 1, true
			})
			if !present || gotV != want {
				t.Fatalf("op %d: update(%d) = (%d,%v), want (%d,true)", i, k, gotV, present, want)
			}
			model[k] = want
		case 3: // update: conditional delete of even values
			old, in := model[k]
			gotV, present := e.Update(k, func(v core.Value, ok bool) (core.Value, bool) {
				if !ok {
					return 0, false
				}
				return v, v%2 != 0
			})
			switch {
			case !in:
				if present {
					t.Fatalf("op %d: delete-update materialized %d", i, k)
				}
			case old%2 == 0: // deleted
				if present || gotV != old {
					t.Fatalf("op %d: delete-update(%d) = (%d,%v), want (%d,false)", i, k, gotV, present, old)
				}
				delete(model, k)
			default: // kept
				if !present || gotV != old {
					t.Fatalf("op %d: keep-update(%d) = (%d,%v), want (%d,true)", i, k, gotV, present, old)
				}
			}
		default: // search
			wantV, want := model[k]
			gotV, got := e.Search(k)
			if got != want || (got && gotV != wantV) {
				t.Fatalf("op %d: search(%d) = (%d,%v), want (%d,%v)", i, k, gotV, got, wantV, want)
			}
		}
	}
	if got := e.Size(); got != len(model) {
		t.Fatalf("final size = %d, model has %d", got, len(model))
	}
}

// testUpdateLifecycle drives one key through insert → modify → no-op →
// remove, all via Update.
func testUpdateLifecycle(t *testing.T, f Factory) {
	e := core.Extend(f())
	if v, ok := e.Update(9, func(_ core.Value, ok bool) (core.Value, bool) { return 0, false }); ok || v != 0 {
		t.Fatalf("removing update on absent key = (%d,%v)", v, ok)
	}
	if v, ok := e.Update(9, func(_ core.Value, ok bool) (core.Value, bool) { return 90, true }); !ok || v != 90 {
		t.Fatalf("inserting update = (%d,%v), want (90,true)", v, ok)
	}
	if v, ok := e.Search(9); !ok || v != 90 {
		t.Fatalf("search after inserting update = (%d,%v)", v, ok)
	}
	if v, ok := e.Update(9, func(old core.Value, ok bool) (core.Value, bool) { return old + 1, true }); !ok || v != 91 {
		t.Fatalf("modifying update = (%d,%v), want (91,true)", v, ok)
	}
	if v, ok := e.Update(9, func(old core.Value, ok bool) (core.Value, bool) { return old, true }); !ok || v != 91 {
		t.Fatalf("no-op update = (%d,%v), want (91,true)", v, ok)
	}
	if v, ok := e.Update(9, func(old core.Value, ok bool) (core.Value, bool) { return 0, false }); ok || v != 91 {
		t.Fatalf("removing update = (%d,%v), want (91,false)", v, ok)
	}
	if _, ok := e.Search(9); ok {
		t.Fatal("key survived removing update")
	}
	if e.Size() != 0 {
		t.Fatalf("size = %d after lifecycle", e.Size())
	}
}

func testGetOrInsertSeq(t *testing.T, f Factory) {
	e := core.Extend(f())
	if v, inserted := e.GetOrInsert(4, 40); !inserted || v != 40 {
		t.Fatalf("first GetOrInsert = (%d,%v), want (40,true)", v, inserted)
	}
	if v, inserted := e.GetOrInsert(4, 41); inserted || v != 40 {
		t.Fatalf("second GetOrInsert = (%d,%v), want (40,false)", v, inserted)
	}
	if v, ok := e.Search(4); !ok || v != 40 {
		t.Fatalf("value overwritten: (%d,%v)", v, ok)
	}
	if e.Size() != 1 {
		t.Fatalf("size = %d", e.Size())
	}
}

func testForEachModel(t *testing.T, f Factory) {
	e := core.Extend(f())
	model := map[core.Key]core.Value{}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		k := core.Key(r.Intn(1000) + 1)
		if e.Insert(k, core.Value(k)*3) {
			model[k] = core.Value(k) * 3
		}
	}
	seen := map[core.Key]core.Value{}
	e.ForEach(func(k core.Key, v core.Value) bool {
		if _, dup := seen[k]; dup {
			t.Fatalf("ForEach yielded key %d twice", k)
		}
		seen[k] = v
		return true
	})
	if len(seen) != len(model) {
		t.Fatalf("ForEach yielded %d elements, model has %d", len(seen), len(model))
	}
	for k, v := range model {
		if seen[k] != v {
			t.Fatalf("ForEach[%d] = %d, want %d", k, seen[k], v)
		}
	}
}

func testForEachEarlyStop(t *testing.T, f Factory) {
	e := core.Extend(f())
	for k := core.Key(1); k <= 50; k++ {
		e.Insert(k, core.Value(k))
	}
	n := 0
	e.ForEach(func(core.Key, core.Value) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("ForEach visited %d elements after stop at 7", n)
	}
}

// testRangeModel checks Range/OrderedOf against a model on a quiescent set:
// sorted, duplicate-free, complete, and count-correct over several windows.
func testRangeModel(t *testing.T, f Factory, ordered bool) {
	s := f()
	o, native := core.OrderedOf(s)
	if o == nil {
		t.Fatal("OrderedOf returned nil")
	}
	if ordered != native {
		t.Fatalf("registry Ordered=%v but OrderedOf native=%v", ordered, native)
	}
	e := core.Extend(s)
	model := map[core.Key]core.Value{}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 400; i++ {
		k := core.Key(r.Intn(2000) + 1)
		if e.Insert(k, core.Value(k)+7) {
			model[k] = core.Value(k) + 7
		}
	}
	windows := [][2]core.Key{
		{1, 2000}, {100, 600}, {601, 601}, {1999, 2100}, {500, 400}, {2500, 3000},
	}
	for _, w := range windows {
		lo, hi := w[0], w[1]
		want := 0
		for k := range model {
			if k >= lo && k <= hi {
				want++
			}
		}
		if hi < lo {
			want = 0
		}
		var got []core.Key
		n := o.Range(lo, hi, func(k core.Key, v core.Value) bool {
			if k < lo || k > hi {
				t.Fatalf("range [%d,%d] yielded out-of-window key %d", lo, hi, k)
			}
			if mv, in := model[k]; !in || mv != v {
				t.Fatalf("range [%d,%d] yielded (%d,%d), model has (%d,%v)", lo, hi, k, v, mv, in)
			}
			if len(got) > 0 && k <= got[len(got)-1] {
				t.Fatalf("range [%d,%d] not strictly ascending: %d after %d", lo, hi, k, got[len(got)-1])
			}
			got = append(got, k)
			return true
		})
		if n != want || len(got) != want {
			t.Fatalf("range [%d,%d] yielded %d (returned %d), want %d", lo, hi, len(got), n, want)
		}
	}
	// Early termination: the count includes the element that stopped it.
	if len(model) >= 3 {
		n := o.Range(1, 2000, func(core.Key, core.Value) bool { return false })
		if n != 1 {
			t.Fatalf("stopped range returned %d, want 1", n)
		}
	}
}

func testMinMax(t *testing.T, f Factory) {
	s := f()
	o, _ := core.OrderedOf(s)
	if _, _, ok := o.Min(); ok {
		t.Fatal("Min on empty set reported an element")
	}
	if _, _, ok := o.Max(); ok {
		t.Fatal("Max on empty set reported an element")
	}
	e := core.Extend(s)
	keys := []core.Key{500, 3, 999, 42, 77}
	for _, k := range keys {
		e.Insert(k, core.Value(k)*2)
	}
	if k, v, ok := o.Min(); !ok || k != 3 || v != 6 {
		t.Fatalf("Min = (%d,%d,%v), want (3,6,true)", k, v, ok)
	}
	if k, v, ok := o.Max(); !ok || k != 999 || v != 1998 {
		t.Fatalf("Max = (%d,%d,%v), want (999,1998,true)", k, v, ok)
	}
}

// testFallbackParity runs one op tape through the algorithm's own surface
// (Extend: native where available) and through the forced generic fallbacks
// (core.Fallback), and requires identical observable behaviour.
func testFallbackParity(t *testing.T, f Factory) {
	nat := core.Extend(f())
	fb := core.Fallback(f())
	r := rand.New(rand.NewSource(29))
	const keyRange = 64
	for i := 0; i < 2000; i++ {
		k := core.Key(r.Intn(keyRange) + 1)
		switch r.Intn(4) {
		case 0:
			nv, np := nat.Update(k, func(v core.Value, ok bool) (core.Value, bool) {
				if !ok {
					return core.Value(k), true
				}
				return v + 1, v%5 != 0
			})
			fv, fp := fb.Update(k, func(v core.Value, ok bool) (core.Value, bool) {
				if !ok {
					return core.Value(k), true
				}
				return v + 1, v%5 != 0
			})
			if nv != fv || np != fp {
				t.Fatalf("op %d: Update(%d) native (%d,%v) != fallback (%d,%v)", i, k, nv, np, fv, fp)
			}
		case 1:
			nv, ni := nat.GetOrInsert(k, core.Value(i))
			fv, fi := fb.GetOrInsert(k, core.Value(i))
			if nv != fv || ni != fi {
				t.Fatalf("op %d: GetOrInsert(%d) native (%d,%v) != fallback (%d,%v)", i, k, nv, ni, fv, fi)
			}
		case 2:
			nv, nk := nat.Remove(k)
			fv, fk := fb.Remove(k)
			if nv != fv || nk != fk {
				t.Fatalf("op %d: Remove(%d) native (%d,%v) != fallback (%d,%v)", i, k, nv, nk, fv, fk)
			}
		default:
			nv, nk := nat.Search(k)
			fv, fk := fb.Search(k)
			if nv != fv || nk != fk {
				t.Fatalf("op %d: Search(%d) native (%d,%v) != fallback (%d,%v)", i, k, nv, nk, fv, fk)
			}
		}
	}
	if nat.Size() != fb.Size() {
		t.Fatalf("final sizes diverge: native %d, fallback %d", nat.Size(), fb.Size())
	}
	// The ordered views must agree element-for-element too.
	no, _ := core.OrderedOf(nat)
	fo, _ := core.OrderedOf(fb)
	var nkeys, fkeys []core.Key
	no.Range(1, keyRange, func(k core.Key, _ core.Value) bool { nkeys = append(nkeys, k); return true })
	fo.Range(1, keyRange, func(k core.Key, _ core.Value) bool { fkeys = append(fkeys, k); return true })
	if len(nkeys) != len(fkeys) {
		t.Fatalf("range views diverge: %d vs %d keys", len(nkeys), len(fkeys))
	}
	for i := range nkeys {
		if nkeys[i] != fkeys[i] {
			t.Fatalf("range views diverge at %d: %d vs %d", i, nkeys[i], fkeys[i])
		}
	}
}

// OrderedOf on the Extended wrappers: nat wraps the raw set, so the view
// falls back — that is fine for parity, both sides sort the same elements.

// testUpdateCounter is the atomicity check: concurrent increments through
// one shared Extended must never lose an update.
func testUpdateCounter(t *testing.T, f Factory) {
	e := core.Extend(f())
	workers := 8
	perWorker := 1500
	if testing.Short() {
		workers, perWorker = 4, 400
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				e.Update(55, func(v core.Value, ok bool) (core.Value, bool) {
					if !ok {
						return 1, true
					}
					return v + 1, true
				})
			}
		}()
	}
	wg.Wait()
	v, ok := e.Search(55)
	if !ok || v != core.Value(workers*perWorker) {
		t.Fatalf("counter = (%d,%v), want (%d,true): lost updates", v, ok, workers*perWorker)
	}
}

// testUpdateManyKeys spreads concurrent increments over a small hot range so
// stripe sharing and neighbouring-node conflicts get exercised.
func testUpdateManyKeys(t *testing.T, f Factory) {
	e := core.Extend(f())
	const keyRange = 32
	workers := 8
	perWorker := 1200
	if testing.Short() {
		workers, perWorker = 4, 300
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w + 31)))
			for i := 0; i < perWorker; i++ {
				k := core.Key(r.Intn(keyRange) + 1)
				e.Update(k, func(v core.Value, ok bool) (core.Value, bool) {
					if !ok {
						return 1, true
					}
					return v + 1, true
				})
			}
		}(w)
	}
	wg.Wait()
	var total core.Value
	for k := core.Key(1); k <= keyRange; k++ {
		if v, ok := e.Search(k); ok {
			total += v
		}
	}
	if total != core.Value(workers*perWorker) {
		t.Fatalf("sum of counters = %d, want %d: lost updates", total, workers*perWorker)
	}
}

// testGetOrInsertOnce: all racers for one absent key observe the same value
// and exactly one inserts.
func testGetOrInsertOnce(t *testing.T, f Factory) {
	e := core.Extend(f())
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	const workers = 8
	for round := 0; round < rounds; round++ {
		k := core.Key(round + 1)
		var inserted atomic.Int64
		got := make([]core.Value, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				v, ins := e.GetOrInsert(k, core.Value(w+1))
				if ins {
					inserted.Add(1)
				}
				got[w] = v
			}(w)
		}
		wg.Wait()
		if n := inserted.Load(); n != 1 {
			t.Fatalf("round %d: %d workers inserted, want exactly 1", round, n)
		}
		winner, ok := e.Search(k)
		if !ok {
			t.Fatalf("round %d: key missing after GetOrInsert race", round)
		}
		for w := 0; w < workers; w++ {
			if got[w] != winner {
				t.Fatalf("round %d: worker %d observed %d, winner is %d", round, w, got[w], winner)
			}
		}
	}
}

// testRangeChurn: writers churn odd keys inside the window while readers
// scan; every scan must be strictly ascending, in-window, duplicate-free,
// and must contain every stable (even) key.
func testRangeChurn(t *testing.T, f Factory) {
	s := f()
	o, _ := core.OrderedOf(s)
	e := core.Extend(s)
	const lo, hi = core.Key(100), core.Key(300)
	for k := lo; k <= hi; k += 2 {
		e.Insert(k, core.Value(k))
	}
	stableCount := int(hi-lo)/2 + 1
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w + 200)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := lo + 1 + 2*core.Key(r.Intn(int(hi-lo)/2))
				if r.Intn(2) == 0 {
					e.Insert(k, core.Value(k))
				} else {
					e.Remove(k)
				}
			}
		}(w)
	}
	scans := 60
	if testing.Short() {
		scans = 15
	}
	for i := 0; i < scans; i++ {
		var prev core.Key
		evens := 0
		n := o.Range(lo, hi, func(k core.Key, v core.Value) bool {
			if k < lo || k > hi {
				t.Errorf("scan %d: out-of-window key %d", i, k)
				return false
			}
			if prev != 0 && k <= prev {
				t.Errorf("scan %d: key %d after %d (not strictly ascending)", i, k, prev)
				return false
			}
			if v != core.Value(k) {
				t.Errorf("scan %d: key %d carries value %d", i, k, v)
				return false
			}
			prev = k
			if k%2 == 0 {
				evens++
			}
			return true
		})
		if t.Failed() {
			break
		}
		if evens != stableCount {
			t.Errorf("scan %d: saw %d stable keys, want %d", i, evens, stableCount)
			break
		}
		if n < evens {
			t.Errorf("scan %d: returned count %d < %d yielded", i, n, evens)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// RunExtendedRegistered pulls the algorithm from the registry and runs the
// v2 suite with its Safe and Ordered flags.
func RunExtendedRegistered(t *testing.T, name string, opts ...core.Option) {
	t.Helper()
	a, ok := core.Get(name)
	if !ok {
		t.Fatalf("algorithm %q not registered", name)
	}
	t.Run(name, func(t *testing.T) {
		if a.Safe {
			t.Parallel()
		}
		RunExtended(t, a.Safe, a.Ordered, func() core.Set {
			s, err := core.New(name, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
	})
}
