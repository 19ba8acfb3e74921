package ascylib_test

import (
	"fmt"
	"sync"
	"testing"

	ascylib "repro"
)

func TestMapDirectUint64(t *testing.T) {
	m := ascylib.MustNewMap[uint64, uint64]("ht-clht-lf", ascylib.Capacity(64))
	if !m.Insert(1, 100) {
		t.Fatal("insert failed")
	}
	if m.Insert(1, 200) {
		t.Fatal("duplicate insert succeeded")
	}
	if v, ok := m.Get(1); !ok || v != 100 {
		t.Fatalf("Get = (%d,%v)", v, ok)
	}
	if fresh := m.Put(1, 300); fresh {
		t.Fatal("Put on existing key reported fresh")
	}
	if v, _ := m.Get(1); v != 300 {
		t.Fatalf("Put did not replace: %d", v)
	}
	if v, ok := m.Delete(1); !ok || v != 300 {
		t.Fatalf("Delete = (%d,%v)", v, ok)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMapBoxedValues(t *testing.T) {
	m := ascylib.MustNewMap[uint64, string]("sl-fraser-opt")
	for i := uint64(1); i <= 200; i++ {
		if !m.Insert(i, fmt.Sprintf("val-%d", i)) {
			t.Fatalf("insert %d failed", i)
		}
	}
	for i := uint64(1); i <= 200; i++ {
		v, ok := m.Get(i)
		if !ok || v != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%d) = (%q,%v)", i, v, ok)
		}
	}
	// Delete half, reinsert with new values: slots are reused, handles
	// stay unambiguous.
	for i := uint64(1); i <= 200; i += 2 {
		if _, ok := m.Delete(i); !ok {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	for i := uint64(1); i <= 200; i += 2 {
		if !m.Insert(i, fmt.Sprintf("new-%d", i)) {
			t.Fatalf("reinsert %d failed", i)
		}
	}
	for i := uint64(1); i <= 200; i++ {
		want := fmt.Sprintf("val-%d", i)
		if i%2 == 1 {
			want = fmt.Sprintf("new-%d", i)
		}
		if v, _ := m.Get(i); v != want {
			t.Fatalf("Get(%d) = %q, want %q", i, v, want)
		}
	}
	if m.Len() != 200 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMapSignedKeysOrdered(t *testing.T) {
	m := ascylib.MustNewMap[int, string]("sl-fraser-opt")
	if !m.NativeOrder() {
		t.Fatal("skip-list map should have native order")
	}
	for _, k := range []int{5, -3, 0, 42, -77, 13} {
		m.Insert(k, fmt.Sprintf("k%d", k))
	}
	var got []int
	n := m.Range(-100, 100, func(k int, v string) bool {
		if v != fmt.Sprintf("k%d", k) {
			t.Fatalf("Range yielded (%d,%q)", k, v)
		}
		got = append(got, k)
		return true
	})
	want := []int{-77, -3, 0, 5, 13, 42}
	if n != len(want) || len(got) != len(want) {
		t.Fatalf("Range yielded %v (n=%d), want %v", got, n, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range order %v, want %v", got, want)
		}
	}
	if k, v, ok := m.Min(); !ok || k != -77 || v != "k-77" {
		t.Fatalf("Min = (%d,%q,%v)", k, v, ok)
	}
	if k, v, ok := m.Max(); !ok || k != 42 || v != "k42" {
		t.Fatalf("Max = (%d,%q,%v)", k, v, ok)
	}
	// Sub-windows with signed bounds.
	if n := m.Range(-10, 10, func(int, string) bool { return true }); n != 3 {
		t.Fatalf("Range(-10,10) = %d, want 3 (-3, 0, 5)", n)
	}
}

func TestMapUpdateAndGetOrInsert(t *testing.T) {
	m := ascylib.MustNewMap[uint32, []byte]("ht-clht-lb", ascylib.Capacity(64))
	if v, inserted := m.GetOrInsert(7, []byte("a")); !inserted || string(v) != "a" {
		t.Fatalf("GetOrInsert = (%q,%v)", v, inserted)
	}
	if v, inserted := m.GetOrInsert(7, []byte("b")); inserted || string(v) != "a" {
		t.Fatalf("second GetOrInsert = (%q,%v)", v, inserted)
	}
	v, present := m.Update(7, func(old []byte, ok bool) ([]byte, bool) {
		if !ok {
			t.Error("Update saw key 7 absent")
		}
		return append(old, 'x'), true
	})
	if !present || string(v) != "ax" {
		t.Fatalf("Update = (%q,%v)", v, present)
	}
	if v, present := m.Update(7, func([]byte, bool) ([]byte, bool) { return nil, false }); present {
		t.Fatalf("removing Update = (%q,%v)", v, present)
	}
	if _, ok := m.Get(7); ok {
		t.Fatal("key survived removing Update")
	}
}

func TestMapForEach(t *testing.T) {
	m := ascylib.MustNewMap[int64, float64]("bst-tk")
	model := map[int64]float64{}
	for i := int64(-50); i <= 50; i += 3 {
		m.Insert(i, float64(i)/2)
		model[i] = float64(i) / 2
	}
	seen := map[int64]float64{}
	m.ForEach(func(k int64, v float64) bool {
		seen[k] = v
		return true
	})
	if len(seen) != len(model) {
		t.Fatalf("ForEach saw %d entries, want %d", len(seen), len(model))
	}
	for k, v := range model {
		if seen[k] != v {
			t.Fatalf("ForEach[%d] = %v, want %v", k, seen[k], v)
		}
	}
}

// TestMapConcurrent exercises the slot table's generation tags: concurrent
// delete/reinsert races must never surface a reused slot's value under the
// wrong key.
func TestMapConcurrent(t *testing.T) {
	m := ascylib.MustNewMap[uint64, string]("ht-clht-lf", ascylib.Capacity(256))
	const keys = 64
	workers := 8
	iters := 2000
	if testing.Short() {
		workers, iters = 4, 500
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := uint64(i%keys + 1)
				switch (i + w) % 3 {
				case 0:
					m.Put(k, fmt.Sprintf("v-%d", k))
				case 1:
					if v, ok := m.Get(k); ok && v != fmt.Sprintf("v-%d", k) {
						t.Errorf("Get(%d) returned foreign value %q", k, v)
						return
					}
				default:
					m.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMapConcurrentCounter: typed Update atomicity end to end, through the
// boxed values' slot CAS on every backend.
func TestMapConcurrentCounter(t *testing.T) {
	for _, algo := range []string{"ht-clht-lb", "sl-fraser-opt"} {
		t.Run(algo, func(t *testing.T) {
			m := ascylib.MustNewMap[uint64, int](algo, ascylib.Capacity(64))
			workers := 8
			perWorker := 1000
			if testing.Short() {
				workers, perWorker = 4, 250
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						m.Update(9, func(old int, ok bool) (int, bool) {
							if !ok {
								return 1, true
							}
							return old + 1, true
						})
					}
				}()
			}
			wg.Wait()
			if v, ok := m.Get(9); !ok || v != workers*perWorker {
				t.Fatalf("counter = (%d,%v), want (%d,true)", v, ok, workers*perWorker)
			}
		})
	}
}

func TestMapReservedKeys(t *testing.T) {
	m := ascylib.MustNewMap[uint64, uint64]("ht-clht-lf", ascylib.Capacity(64))
	for _, k := range []uint64{^uint64(0), ^uint64(0) - 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("key %d accepted; the top of the domain is reserved", k)
				}
			}()
			m.Insert(k, 1)
		}()
	}
	// The next key down is fine.
	if !m.Insert(^uint64(0)-2, 7) {
		t.Fatal("legal key rejected")
	}
}
