package server

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"
)

// statsDiffKeys is the wire-counter surface that is a pure function of the
// workload, however connections interleave. Excluded as timing-dependent:
// uptime, time, curr_connections (close is asynchronous), the batch-depth
// family (how commands clump into batches depends on scheduling), the
// value-pool ledger (reuse depends on GC timing), and bytes_read/
// bytes_written. CAS tokens come from the store-global Store.nextCAS and
// travel in decimal (gets out, cas in), so with several connections the
// byte totals depend on which connection draws which token. bytesDiffKeys
// pins them in a single-connection run, where they are deterministic.
var statsDiffKeys = []string{
	"cmd_get", "cmd_set", "cmd_delete", "cmd_incr", "cmd_decr", "cmd_flush",
	"get_hits", "get_misses",
	"delete_hits", "delete_misses",
	"incr_hits", "incr_misses",
	"decr_hits", "decr_misses",
	"cas_hits", "cas_misses", "cas_badval",
	"protocol_errors",
	"curr_items", "total_connections",
}

var bytesDiffKeys = []string{"bytes_read", "bytes_written"}

// runStatsWorkload boots a server (per-connection stat slots by default,
// the pre-sharding single-global-slot reference when global is set), drives
// an identical randomized mixed-verb stream from conns concurrent
// connections — keyspaces partitioned per connection so every hit/miss
// outcome is deterministic under any interleaving — plus one malformed
// frame (protocol_errors) and one final flush_all, and returns the server's
// stats map read in-process.
func runStatsWorkload(t *testing.T, global bool, conns int) map[string]string {
	t.Helper()
	s := startServerCfg(t, Config{Algo: "ht-clht-lb", Shards: 4, globalWireStats: global})
	addr := s.Addr().String()

	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("conn %d: dial: %v", w, err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			key := func(i int) string { return fmt.Sprintf("w%d-%d", w, i) }
			for i := 0; i < 400; i++ {
				k := key(rng.Intn(32))
				var err error
				switch rng.Intn(12) {
				case 0, 1:
					err = c.Set(k, uint32(i), 0, []byte("v-"+k))
				case 2:
					_, err = c.Add(k, 0, 0, []byte("a-"+k))
				case 3:
					_, err = c.Replace(k, 0, 0, []byte("r-"+k))
				case 4, 5, 6:
					_, _, err = c.Get(k)
				case 7:
					// A gets→cas pair: hit when the entry exists (the token
					// is private to this connection's keyspace), a cas miss
					// otherwise; every third round deliberately corrupts the
					// token for a cas_badval.
					var e Entry
					var ok bool
					if e, ok, err = c.Gets(k); err == nil && ok {
						casid := e.CAS
						if i%3 == 0 {
							casid += 7777
						}
						_, err = c.Cas(k, 1, 0, []byte("c-"+k), casid)
					} else if err == nil {
						_, err = c.Cas(k, 1, 0, []byte("c-"+k), 12345)
					}
				case 8:
					_, err = c.Delete(k)
				case 9:
					// Counter keys live in their own per-connection range so
					// incr/decr outcomes (hit, miss, or non-numeric error)
					// are scripted, not raced.
					nk := fmt.Sprintf("w%d-ctr-%d", w, rng.Intn(4))
					if i%5 == 0 {
						err = c.Set(nk, 0, 0, []byte(strconv.Itoa(i)))
					} else {
						_, _, err = c.Incr(nk, 3)
					}
				case 10:
					_, _, err = c.Decr(fmt.Sprintf("w%d-ctr-%d", w, rng.Intn(4)), 1)
				case 11:
					_, err = c.GetMulti(key(0), key(1), k)
				}
				if err != nil {
					t.Errorf("conn %d op %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// One raw connection sends a malformed verb (counts a protocol error,
	// keeps serving) and then the single flush_all, at a point where no
	// other traffic is in flight — so its effect on curr_items and the
	// flush/get counters is deterministic.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	br := bufio.NewReader(raw)
	for _, frame := range []string{"bogus nonsense\r\n", "flush_all\r\n", "get w0-0\r\n"} {
		if _, err := raw.Write([]byte(frame)); err != nil {
			t.Fatalf("raw write %q: %v", frame, err)
		}
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("raw read after %q: %v", frame, err)
		}
	}
	raw.Close()

	// A connection counts its written bytes after the write returns, so
	// the client can read a response before it is counted. Wait for every
	// connection handler to exit before reading the totals.
	deadline := time.Now().Add(5 * time.Second)
	for s.StatsMap()["curr_connections"] != "0" {
		if time.Now().After(deadline) {
			t.Fatal("connections still open 5s after the workload ended")
		}
		time.Sleep(time.Millisecond)
	}
	return s.StatsMap()
}

// TestPerConnStatsDifferential is the sharding-correctness gate for the
// wire counters: the per-connection padded slots must aggregate to byte-
// identical values against the old store-global atomics (kept alive as the
// globalWireStats reference mode) across a randomized concurrent mixed-verb
// stream. Any counter dropped on the slot-lease path, double-counted on
// release, or missed by aggregation diverges here.
func TestPerConnStatsDifferential(t *testing.T) {
	sharded := runStatsWorkload(t, false, 6)
	compareStats(t, statsDiffKeys, sharded, runStatsWorkload(t, true, 6))
	compareStats(t, bytesDiffKeys, runStatsWorkload(t, false, 1), runStatsWorkload(t, true, 1))
	// The workload must actually have exercised the interesting paths —
	// a differential between two zeros proves nothing.
	for _, k := range []string{"cmd_get", "cmd_set", "get_hits", "get_misses",
		"cas_hits", "cas_badval", "delete_hits", "incr_hits", "protocol_errors",
		"bytes_read", "bytes_written"} {
		if sharded[k] == "0" {
			t.Errorf("workload never hit %s (counter is 0)", k)
		}
	}
}

// compareStats reports every key whose value differs between the sharded
// and global stats maps, or is missing from either.
func compareStats(t *testing.T, keys []string, sharded, global map[string]string) {
	t.Helper()
	for _, k := range keys {
		sv, sok := sharded[k]
		gv, gok := global[k]
		if !sok || !gok {
			t.Errorf("%s missing: sharded=%v global=%v", k, sok, gok)
			continue
		}
		if sv != gv {
			t.Errorf("%s: sharded=%s global=%s", k, sv, gv)
		}
	}
}

// TestStatsNamesPinned pins the exact ordered list of names the stats
// command reports, so a change to how the counters are kept cannot rename,
// drop, add or reorder a line of its output.
func TestStatsNamesPinned(t *testing.T) {
	s := startServer(t, "ht-clht-lb")
	want := []string{
		"uptime", "time", "version", "pointer_size", "algo", "shards", "ordered",
		"threads", "curr_connections", "total_connections",
		"bytes_read", "bytes_written",
		"cmd_get", "cmd_set", "cmd_delete", "cmd_incr", "cmd_decr", "cmd_flush",
		"cmd_mrange", "cmd_mmin", "cmd_mmax", "cmd_msnap", "range_keys_returned",
		"get_hits", "get_misses", "delete_hits", "delete_misses",
		"incr_hits", "incr_misses", "decr_hits", "decr_misses",
		"cas_hits", "cas_misses", "cas_badval", "protocol_errors",
		"handler_panics", "conns_shed", "curr_items",
		"batches", "cmd_batched", "batch_depth_avg",
		"batch_depth_1", "batch_depth_2_3", "batch_depth_4_7", "batch_depth_8_15",
		"batch_depth_16_31", "batch_depth_32_63", "batch_depth_64_127",
		"batch_depth_128_255", "batch_depth_256_plus",
		"value_pool_allocs", "value_pool_reused",
		"snapshots_taken", "snapshot_last_unix", "snapshot_items", "snapshot_bytes",
		"snapshot_errors", "loaded_items", "load_expired_skipped", "snapshot_load_ms",
	}
	var got []string
	for _, kv := range s.Stats() {
		got = append(got, kv[0])
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stats names changed:\n got %q\nwant %q", got, want)
	}
}
