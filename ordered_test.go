package ascylib

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// adversarialKeys is the conformance corpus: every way the 8-byte-prefix
// encoding can be stressed. Shared prefixes longer than 8 bytes force
// chain ordering; length ties and prefix-of-each-other pairs probe the
// zero-pad comparison; 0xFF runs probe the reserved-top clamp; the empty
// key is the global minimum.
func adversarialKeys() []string {
	ks := []string{
		"", "a", "aa", "ab", "b",
		"shared-prefix-00", "shared-prefix-01", "shared-prefix-010", "shared-prefix-1",
		"shared-prefix", "shared-prefi", "shared-pre",
		"exactly8", "exactly8a", "exactly8b", "exactly7",
		"\x01", "\x01\x01", "\x7f", "~~~~~~~~~~",
		"k1", "k10", "k100", "k2", "k20", "k9", "k99",
	}
	// 0xFF runs: everything here clamps onto the same top core key, so the
	// clamped bucket's chain must order them fully.
	for i := 0; i < 12; i++ {
		ks = append(ks, strings.Repeat("\xff", 5+i))
		ks = append(ks, strings.Repeat("\xff", 8)+fmt.Sprintf("%03d", i))
	}
	// Long shared 8+ byte prefixes with varied tails.
	for i := 0; i < 40; i++ {
		ks = append(ks, fmt.Sprintf("longprefix-shared-%04d", i*7%40))
	}
	return ks
}

// orderedShardCounts are the shard counts the ordered oracle and churn tests
// run at: 1 is the unsharded ordered map, 4 makes scans cross shards.
var orderedShardCounts = []int{1, 4}

// spanScan runs one bounded ordered scan over the whole map the way the
// server's store does: it walks OrderedShardSpan's shards in order, hands
// each the limit still left, and returns how many entries were yielded.
func spanScan[V any](s *ShardedStringMap[V], lo, hi []byte, limit int, fn func(k string, v V) bool) int {
	n := 0
	stopped := false
	slo, shi := s.OrderedShardSpan(lo, hi)
	for sh := slo; sh <= shi && !stopped; sh++ {
		left := 0
		if limit > 0 {
			if left = limit - n; left <= 0 {
				break
			}
		}
		n += s.ShardRangeBytes(sh, lo, hi, left, func(k string, v V) bool {
			stopped = !fn(k, v)
			return !stopped
		})
	}
	return n
}

// TestOrderedStringMapOracle pins lexicographic enumeration of the ordered
// ShardedStringMap against a sorted-slice oracle for the adversarial corpus,
// across backends with and without native order, unsharded and sharded.
func TestOrderedStringMapOracle(t *testing.T) {
	for _, algo := range []string{"sl-fraser-opt", "bst-ellen", "ht-clht-lb", "ll-lazy"} {
		t.Run(algo, func(t *testing.T) {
			for _, nshards := range orderedShardCounts {
				t.Run(fmt.Sprintf("shards%d", nshards), func(t *testing.T) {
					testOrderedOracle(t, algo, nshards)
				})
			}
		})
	}
}

func testOrderedOracle(t *testing.T, algo string, nshards int) {
	m, err := NewOrderedShardedStringMap[int](algo, nshards, Capacity(64))
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[string]int{}
	for i, k := range adversarialKeys() {
		m.Put(k, i)
		oracle[k] = i
	}
	sorted := make([]string, 0, len(oracle))
	for k := range oracle {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	if got := m.Len(); got != len(oracle) {
		t.Fatalf("Len = %d, want %d", got, len(oracle))
	}
	for k, want := range oracle {
		if v, ok := m.Get(k); !ok || v != want {
			t.Fatalf("Get(%q) = %d, %v; want %d", k, v, ok, want)
		}
	}

	// Full unbounded scan must equal the sorted oracle exactly.
	var got []string
	spanScan(m, nil, nil, 0, func(k string, v int) bool {
		if oracle[k] != v {
			t.Fatalf("scan yielded %q=%d, oracle %d", k, v, oracle[k])
		}
		got = append(got, k)
		return true
	})
	if len(got) != len(sorted) {
		t.Fatalf("scan yielded %d keys, want %d", len(got), len(sorted))
	}
	for i := range got {
		if got[i] != sorted[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, got[i], sorted[i])
		}
	}

	// The server's mmin is the first key of a scan and its mmax the last key
	// of a full one. The full scan above already ends at the oracle's max;
	// a limit-1 scan must stop at its min.
	var minKey string
	if n := spanScan(m, nil, nil, 1, func(k string, _ int) bool { minKey = k; return true }); n != 1 || minKey != sorted[0] {
		t.Fatalf("min = %q (%d keys), want %q", minKey, n, sorted[0])
	}

	// Random bounded sub-ranges with limits, including inverted
	// bounds (must be empty) and bounds that are not stored keys.
	rng := xrand.New(7)
	bounds := append(append([]string{}, sorted...), "m", "shared-prefix-005", "\xff\xff", "zz")
	for trial := 0; trial < 200; trial++ {
		lo := bounds[rng.Intn(len(bounds))]
		hi := bounds[rng.Intn(len(bounds))]
		limit := int(rng.Uint64n(10))
		var want []string
		if lo <= hi {
			for _, k := range sorted {
				if k >= lo && k <= hi {
					want = append(want, k)
					if limit > 0 && len(want) == limit {
						break
					}
				}
			}
		}
		var scan []string
		n := spanScan(m, []byte(lo), []byte(hi), limit, func(k string, _ int) bool {
			scan = append(scan, k)
			return true
		})
		if n != len(scan) || len(scan) != len(want) {
			t.Fatalf("Range(%q,%q,%d) yielded %d (%v), want %v", lo, hi, limit, n, scan, want)
		}
		for i := range scan {
			if scan[i] != want[i] {
				t.Fatalf("Range(%q,%q,%d)[%d] = %q, want %q", lo, hi, limit, i, scan[i], want[i])
			}
		}
	}
}

// TestOrderedShardedStringMapSpan pins that range-partitioned routing
// enumerates shards in global key order: walking OrderedShardSpan's span
// and scanning each shard must reproduce the sorted oracle, for shard
// counts that do and don't divide the keyspace evenly.
func TestOrderedShardedStringMapSpan(t *testing.T) {
	for _, nshards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards%d", nshards), func(t *testing.T) {
			s, err := NewOrderedShardedStringMap[int]("sl-fraser-opt", nshards, Capacity(64))
			if err != nil {
				t.Fatal(err)
			}
			oracle := map[string]int{}
			for i, k := range adversarialKeys() {
				s.Put(k, i)
				oracle[k] = i
			}
			sorted := make([]string, 0, len(oracle))
			for k := range oracle {
				sorted = append(sorted, k)
			}
			sort.Strings(sorted)

			for k, want := range oracle {
				if v, ok := s.Get(k); !ok || v != want {
					t.Fatalf("Get(%q) = %d, %v; want %d", k, v, ok, want)
				}
			}

			// The full spanned walk is the sorted oracle.
			slo, shi := s.OrderedShardSpan(nil, nil)
			if slo != 0 || shi != nshards-1 {
				t.Fatalf("unbounded span = [%d,%d], want [0,%d]", slo, shi, nshards-1)
			}
			var got []string
			for sh := slo; sh <= shi; sh++ {
				s.ShardRangeBytes(sh, nil, nil, 0, func(k string, _ int) bool {
					got = append(got, k)
					return true
				})
			}
			if len(got) != len(sorted) {
				t.Fatalf("spanned scan yielded %d keys, want %d", len(got), len(sorted))
			}
			for i := range got {
				if got[i] != sorted[i] {
					t.Fatalf("spanned scan[%d] = %q, want %q", i, got[i], sorted[i])
				}
			}

			// Bounded sub-spans: every key in [lo, hi] must live inside the
			// span's shards, and the walk must be the oracle's slice.
			rng := xrand.New(11)
			for trial := 0; trial < 100; trial++ {
				lo := sorted[rng.Intn(len(sorted))]
				hi := sorted[rng.Intn(len(sorted))]
				if lo > hi {
					lo, hi = hi, lo
				}
				var want []string
				for _, k := range sorted {
					if k >= lo && k <= hi {
						want = append(want, k)
					}
				}
				a, b := s.OrderedShardSpan([]byte(lo), []byte(hi))
				var scan []string
				for sh := a; sh <= b; sh++ {
					s.ShardRangeBytes(sh, []byte(lo), []byte(hi), 0, func(k string, _ int) bool {
						scan = append(scan, k)
						return true
					})
				}
				if len(scan) != len(want) {
					t.Fatalf("span(%q,%q) yielded %v, want %v", lo, hi, scan, want)
				}
				for i := range scan {
					if scan[i] != want[i] {
						t.Fatalf("span(%q,%q)[%d] = %q, want %q", lo, hi, i, scan[i], want[i])
					}
				}
			}

			// Each shard's scan ends bound a contiguous key range: they span
			// exactly that shard, and they ascend with the shard index.
			prevLast, sawAny := "", false
			for sh := 0; sh < nshards; sh++ {
				var keys []string
				s.ShardRangeBytes(sh, nil, nil, 0, func(k string, _ int) bool {
					keys = append(keys, k)
					return true
				})
				if len(keys) == 0 {
					continue
				}
				first, last := keys[0], keys[len(keys)-1]
				if a, b := s.OrderedShardSpan([]byte(first), []byte(last)); a != sh || b != sh {
					t.Fatalf("shard %d ends [%q,%q] span shards [%d,%d]", sh, first, last, a, b)
				}
				if sawAny && first <= prevLast {
					t.Fatalf("shard %d starts at %q, not above the previous shard's last %q", sh, first, prevLast)
				}
				prevLast, sawAny = last, true
			}
		})
	}
}

// TestOrderedStringMapChurn is the concurrency half of the conformance
// gate (run it under -race): scans must stay sorted, duplicate-free, and
// bounded while writers churn adversarially colliding keys underneath.
func TestOrderedStringMapChurn(t *testing.T) {
	for _, algo := range []string{"sl-fraser-opt", "ht-clht-lb"} {
		t.Run(algo, func(t *testing.T) {
			for _, nshards := range orderedShardCounts {
				t.Run(fmt.Sprintf("shards%d", nshards), func(t *testing.T) {
					testOrderedChurn(t, algo, nshards)
				})
			}
		})
	}
}

func testOrderedChurn(t *testing.T, algo string, nshards int) {
	m, err := NewOrderedShardedStringMap[uint64](algo, nshards, Capacity(128))
	if err != nil {
		t.Fatal(err)
	}
	keys := adversarialKeys()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w + 1))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[rng.Intn(len(keys))]
				if rng.Uint64n(3) == 0 {
					m.Delete(k)
				} else {
					m.Put(k, uint64(i))
				}
			}
		}(w)
	}
	const limit = 25
	for round := 0; round < 300; round++ {
		prev, n, seen := "", 0, map[string]bool{}
		first := true
		spanScan(m, nil, nil, limit, func(k string, _ uint64) bool {
			if !first && k <= prev {
				t.Errorf("scan out of order: %q after %q", k, prev)
			}
			if seen[k] {
				t.Errorf("scan yielded %q twice", k)
			}
			seen[k] = true
			prev, first = k, false
			n++
			return true
		})
		if n > limit {
			t.Errorf("scan yielded %d keys, limit %d", n, limit)
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}
