package ascylib

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/xrand"
)

// TestSlotReuseChurn races enumerations against slot retirement and reuse.
// Every key shares its 8-byte prefix with up to three others, so the
// ordered map keeps chains of 2–4 keys per core entry; owner writers insert
// and delete until chains empty out, their slots retire, and fresh entries
// take them over. A scan, ForEach or Snapshot that resolved a core entry to
// its slot after the slot had been handed to another prefix would yield that
// prefix's chain: out of order, out of bounds, or a key twice. Each writer
// owns its keys, so the last value it wrote must read back at the end.
func TestSlotReuseChurn(t *testing.T) {
	rounds := 5000
	if testing.Short() {
		rounds = 1000
	}
	const prefixes, writers = 16, 4
	suffixes := []string{"", "-a", "-bb", "-ccc"}
	var keys []string
	for p := 0; p < prefixes; p++ {
		for _, s := range suffixes {
			keys = append(keys, fmt.Sprintf("p%07d%s", p, s))
		}
	}
	// A prefix, with all its keys, belongs to one writer.
	owned := make([][]int, writers)
	for i := range keys {
		w := i / len(suffixes) % writers
		owned[w] = append(owned[w], i)
	}
	for _, algo := range []string{"ht-clht-lb", "sl-fraser-opt"} {
		t.Run(algo, func(t *testing.T) {
			m, err := NewOrderedShardedStringMap[uint64](algo, 2, Capacity(64))
			if err != nil {
				t.Fatal(err)
			}
			// last[i] is the value last written to keys[i], 0 once deleted.
			last := make([]uint64, len(keys))
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := xrand.New(uint64(w + 1))
					for seq := uint64(1); !stop.Load(); seq++ {
						i := owned[w][rng.Intn(len(owned[w]))]
						if rng.Uint64n(2) == 0 {
							m.Delete(keys[i])
							last[i] = 0
						} else {
							v := uint64(i)<<32 | seq
							m.Put(keys[i], v)
							last[i] = v
						}
					}
				}(w)
			}
			rng := xrand.New(99)
			for r := 0; r < rounds && !t.Failed(); r++ {
				lo, hi := []byte(keys[rng.Intn(len(keys))]), []byte(keys[rng.Intn(len(keys))])
				if bytes.Compare(lo, hi) > 0 {
					lo, hi = hi, lo
				}
				prev := ""
				spanScan(m, lo, hi, 0, func(k string, v uint64) bool {
					switch {
					case prev != "" && k <= prev:
						t.Errorf("scan [%s, %s]: %q after %q", lo, hi, k, prev)
					case k < string(lo) || k > string(hi):
						t.Errorf("scan [%s, %s] yielded %q", lo, hi, k)
					case keys[v>>32] != k:
						t.Errorf("scan yielded %q with the value of %q", k, keys[v>>32])
					}
					prev = k
					return !t.Failed()
				})
				seen := map[string]bool{}
				m.ForEach(func(k string, _ uint64) bool {
					if seen[k] {
						t.Errorf("ForEach yielded %q twice", k)
					}
					seen[k] = true
					return !t.Failed()
				})
				clear(seen)
				for sh := 0; sh < m.NumShards(); sh++ {
					m.ShardSnapshot(sh, func(k string, _ uint64) bool {
						if seen[k] {
							t.Errorf("Snapshot yielded %q twice", k)
						}
						seen[k] = true
						return !t.Failed()
					})
				}
			}
			stop.Store(true)
			wg.Wait()
			for i, k := range keys {
				v, ok := m.Get(k)
				if want := last[i]; ok != (want != 0) || v != want {
					t.Errorf("Get(%q) = (%#x, %v) after the churn, last write was %#x", k, v, ok, want)
				}
			}
		})
	}
}
