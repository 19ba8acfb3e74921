package server

import (
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServerCfg boots a server with an explicit config (loopback ephemeral
// port) and returns it with a cleanup.
func startServerCfg(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Listen(); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	return s
}

// TestServerShardedEndToEnd drives the full command surface against sharded
// servers — a hash table and a list backend, 4-way — and checks the
// aggregation points: items and flush_all must behave store-wide even
// though every key lives in one of four independent structures.
func TestServerShardedEndToEnd(t *testing.T) {
	for _, algo := range []string{"ht-clht-lb", "ll-lazy"} {
		t.Run(algo, func(t *testing.T) {
			s := startServerCfg(t, Config{Algo: algo, Capacity: 1 << 10, Shards: 4})
			if got := s.Store().Shards(); got != 4 {
				t.Fatalf("Shards = %d, want 4", got)
			}
			c := dialT(t, s)
			const n = 200
			for i := 0; i < n; i++ {
				if err := c.Set(fmt.Sprintf("key-%d", i), uint32(i), 0, []byte(fmt.Sprintf("value-%d", i))); err != nil {
					t.Fatalf("Set %d: %v", i, err)
				}
			}
			for i := 0; i < n; i++ {
				e, ok, err := c.Get(fmt.Sprintf("key-%d", i))
				if err != nil || !ok || string(e.Data) != fmt.Sprintf("value-%d", i) || e.Flags != uint32(i) {
					t.Fatalf("Get %d = %+v, %v, %v", i, e, ok, err)
				}
			}
			st, err := c.Stats()
			if err != nil {
				t.Fatalf("Stats: %v", err)
			}
			if st["shards"] != "4" {
				t.Fatalf("stats shards = %q, want 4", st["shards"])
			}
			if st["curr_items"] != strconv.Itoa(n) {
				t.Fatalf("curr_items = %q, want %d", st["curr_items"], n)
			}
			// Arithmetic and delete route to the right shard.
			c.Set("ctr", 0, 0, []byte("5"))
			if v, ok, _ := c.Incr("ctr", 10); !ok || v != 15 {
				t.Fatalf("Incr = %d, %v", v, ok)
			}
			if ok, _ := c.Delete("key-0"); !ok {
				t.Fatal("Delete missed")
			}
			// flush_all must kill every shard's items at once.
			if err := c.FlushAll(); err != nil {
				t.Fatalf("FlushAll: %v", err)
			}
			for i := 1; i < n; i++ {
				if _, ok, _ := c.Get(fmt.Sprintf("key-%d", i)); ok {
					t.Fatalf("key-%d survived flush_all", i)
				}
			}
			if got := s.Store().Items(); got != 0 {
				t.Fatalf("items after immediate flush sweep = %d, want 0", got)
			}
			// The store stays serviceable after the sweep.
			if err := c.Set("after", 0, 0, []byte("alive")); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := c.Get("after"); !ok {
				t.Fatal("post-flush store is dead")
			}
		})
	}
}

// TestServerShardedConcurrentClients is the sharded analog of the
// concurrent-clients test, on a list backend where sharding is the whole
// point: correctness must be indistinguishable from the single-structure
// server.
func TestServerShardedConcurrentClients(t *testing.T) {
	s := startServerCfg(t, Config{Algo: "ll-lazy", Capacity: 1 << 10, Shards: 8})
	const clients, rounds = 8, 120
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(s.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("c%d-k%d", i, r%20)
				if err := c.Set(key, 0, 0, []byte("payload")); err != nil {
					errs <- err
					return
				}
				if _, _, err := c.Get(key); err != nil {
					errs <- err
					return
				}
				if r%10 == 0 {
					if _, err := c.Delete(key); err != nil {
						errs <- err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A cross-connection counter stays exact on a sharded list.
	c := dialT(t, s)
	c.Set("shared", 0, 0, []byte("0"))
	var cwg sync.WaitGroup
	for i := 0; i < 4; i++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			cl, err := Dial(s.Addr().String())
			if err != nil {
				return
			}
			defer cl.Close()
			for n := 0; n < 100; n++ {
				cl.Incr("shared", 1)
			}
		}()
	}
	cwg.Wait()
	if v, ok, _ := c.Incr("shared", 0); !ok || v != 400 {
		t.Fatalf("shared counter = %d, %v; want 400", v, ok)
	}
}

// TestStoreShardedValuePoolsIndependent: value blocks retire into the pool
// of the shard that owns the key, and the aggregate counters balance across
// a churn that touches every shard.
func TestStoreShardedValuePools(t *testing.T) {
	st, err := NewStore("ht-clht-lb", 256, true, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'x'}, 100)
	for i := 0; i < 3000; i++ {
		key := []byte(fmt.Sprintf("k%d", i%64))
		p := st.Pin()
		st.Set(p, key, 0, 0, val)
		p.Unpin()
	}
	bs := st.BufStats()
	if bs.Frees > bs.Allocs {
		t.Fatalf("more frees than allocs (double free): %+v", bs)
	}
	if bs.Garbage < 0 {
		t.Fatalf("negative garbage (double hand-out): %+v", bs)
	}
	if bs.Reused == 0 {
		t.Fatalf("no block reuse after 3000 overwrites: %+v", bs)
	}
}

// TestStoreReapSurvivesPanic is the regression test for the stuck-reaper
// bug: reapDead used to clear the per-store reaping flag without defer, so
// any panic on the reap path (the facade's slot-table exhaustion panic
// surfaces through UpdateBytes; here an injected clock stands in for it)
// left the flag true forever and silently disabled expired-item reaping.
// With the deferred clear, a reap that panics must leave the reaper usable.
func TestStoreReapSurvivesPanic(t *testing.T) {
	st, err := NewStore("ht-clht-lb", 64, true, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(1000)
	st.now = func() int64 { return now }
	p := st.Pin()
	key := []byte("ttl")
	st.Set(p, key, 0, 100, []byte("soon-dead"))
	it, ok := st.Get(p, key)
	if !ok {
		t.Fatal("stored item invisible")
	}
	p.Unpin()
	now += 200 // expire it

	// Inject a panic into the reap path, after the reaper flag is taken.
	st.reapHook = func() { panic("injected reap-path panic") }
	p = st.Pin()
	sh, h := st.sm.RouteBytes(key)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected panic did not fire")
			}
		}()
		st.reapDead(p, sh, h, key, it.CAS)
	}()
	p.Unpin()

	// The corpse is still there (the reap died), but the reaper must not
	// be: a later read has to win the flag and collect it. Re-pin so the
	// read judges liveness at the advanced clock (pins fix their timestamp
	// at creation).
	st.reapHook = nil
	if st.Items() != 1 {
		t.Fatalf("items = %d, want the corpse still present", st.Items())
	}
	p = st.Pin()
	defer p.Unpin()
	if _, ok := st.Get(p, key); ok {
		t.Fatal("expired item visible")
	}
	if st.Items() != 0 {
		t.Fatalf("reaping permanently disabled after panic: items = %d, want 0", st.Items())
	}
}

// statsDelta runs one step against a fresh connection and returns the
// change in every counter named in want.
func statsDelta(t *testing.T, c *Client, step func(), keys []string) map[string]int64 {
	t.Helper()
	before, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats before: %v", err)
	}
	step()
	after, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats after: %v", err)
	}
	d := map[string]int64{}
	for _, k := range keys {
		b, _ := strconv.ParseInt(before[k], 10, 64)
		a, ok := after[k]
		if !ok {
			t.Fatalf("stat %q missing", k)
		}
		av, _ := strconv.ParseInt(a, 10, 64)
		d[k] = av - b
	}
	return d
}

// TestServerStatsCountEveryOutcomeOnce is the stats-drift regression test:
// every command class has a cmd_* counter, and every single command lands
// in exactly one hit/miss (or equivalent outcome) bucket — including the
// previously uncounted delete commands and non-numeric incr/decr.
func TestServerStatsCountEveryOutcomeOnce(t *testing.T) {
	s := startServerCfg(t, Config{Algo: "ht-clht-lb", Capacity: 1 << 10})
	c := dialT(t, s)
	// Fixtures.
	if err := c.Set("num", 0, 0, []byte("10")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("text", 0, 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}

	counterKeys := []string{
		"cmd_get", "cmd_set", "cmd_delete", "cmd_incr", "cmd_decr", "cmd_flush",
		"get_hits", "get_misses", "delete_hits", "delete_misses",
		"incr_hits", "incr_misses", "decr_hits", "decr_misses",
		"cas_hits", "cas_misses", "cas_badval",
	}
	for _, tc := range []struct {
		name string
		step func()
		want map[string]int64
	}{
		{"get hit", func() { c.Get("num") },
			map[string]int64{"cmd_get": 1, "get_hits": 1}},
		{"get miss", func() { c.Get("absent") },
			map[string]int64{"cmd_get": 1, "get_misses": 1}},
		{"multi-get mixed", func() { c.GetMulti("num", "absent", "text") },
			map[string]int64{"cmd_get": 1, "get_hits": 2, "get_misses": 1}},
		{"set", func() { c.Set("num", 0, 0, []byte("10")) },
			map[string]int64{"cmd_set": 1}},
		{"delete hit", func() { c.Set("victim", 0, 0, []byte("v")); c.Delete("victim") },
			map[string]int64{"cmd_set": 1, "cmd_delete": 1, "delete_hits": 1}},
		{"delete miss", func() { c.Delete("victim") },
			map[string]int64{"cmd_delete": 1, "delete_misses": 1}},
		{"incr hit", func() { c.Incr("num", 1) },
			map[string]int64{"cmd_incr": 1, "incr_hits": 1}},
		{"incr miss", func() { c.Incr("absent", 1) },
			map[string]int64{"cmd_incr": 1, "incr_misses": 1}},
		{"incr non-numeric counts as a hit, once", func() { c.Incr("text", 1) },
			map[string]int64{"cmd_incr": 1, "incr_hits": 1}},
		{"decr hit", func() { c.Decr("num", 1) },
			map[string]int64{"cmd_decr": 1, "decr_hits": 1}},
		{"decr miss", func() { c.Decr("absent", 1) },
			map[string]int64{"cmd_decr": 1, "decr_misses": 1}},
		{"decr non-numeric counts as a hit, once", func() { c.Decr("text", 1) },
			map[string]int64{"cmd_decr": 1, "decr_hits": 1}},
		{"cas stored", func() {
			e, _, _ := c.Gets("num")
			c.Cas("num", 0, 0, []byte("10"), e.CAS)
		}, map[string]int64{"cmd_get": 1, "get_hits": 1, "cmd_set": 1, "cas_hits": 1}},
		{"cas badval", func() { c.Cas("num", 0, 0, []byte("x"), 999999) },
			map[string]int64{"cmd_set": 1, "cas_badval": 1}},
		{"cas miss", func() { c.Cas("absent", 0, 0, []byte("x"), 1) },
			map[string]int64{"cmd_set": 1, "cas_misses": 1}},
		{"flush_all", func() { c.FlushAll() },
			map[string]int64{"cmd_flush": 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := statsDelta(t, c, tc.step, counterKeys)
			for k, want := range tc.want {
				if d[k] != want {
					t.Errorf("%s delta = %d, want %d (full delta %v)", k, d[k], want, d)
				}
			}
			// Exactly-once accounting: nothing else may have moved.
			for k, got := range d {
				if _, expected := tc.want[k]; !expected && got != 0 {
					t.Errorf("unexpected %s delta = %d (full delta %v)", k, got, d)
				}
			}
		})
	}
}

// rawExchange writes one command over a raw connection and reads the
// response until a line is complete.
func rawExchange(t *testing.T, conn net.Conn, cmd string) string {
	t.Helper()
	if _, err := conn.Write([]byte(cmd)); err != nil {
		t.Fatalf("write %q: %v", cmd, err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	var got strings.Builder
	for !strings.HasSuffix(got.String(), "\r\n") {
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("read after %q: %v (got %q)", cmd, err, got.String())
		}
		got.Write(buf[:n])
	}
	return got.String()
}

// TestFlushAllDelayBoundary pins the flush_all delay validation at the
// boundary: 0 and 1 are accepted, a negative delay is rejected with
// CLIENT_ERROR — it must never reach the store, where a past epoch with a
// fresh CAS watermark would instantly kill every current item.
func TestFlushAllDelayBoundary(t *testing.T) {
	s := startServerCfg(t, Config{Algo: "ht-clht-lb", Capacity: 1 << 10})
	now := time.Now().Unix()
	s.Store().now = func() int64 { return now }
	c := dialT(t, s)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	c.Set("survivor", 0, 0, []byte("v"))
	if got := rawExchange(t, conn, "flush_all -1\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("flush_all -1 = %q, want CLIENT_ERROR", got)
	}
	// The rejected flush must not have scheduled an epoch.
	if _, ok, _ := c.Get("survivor"); !ok {
		t.Fatal("rejected flush_all -1 still killed items")
	}
	if got := rawExchange(t, conn, "flush_all 1\r\n"); got != "OK\r\n" {
		t.Fatalf("flush_all 1 = %q, want OK", got)
	}
	// Delay 1: alive this second, dead the next.
	if _, ok, _ := c.Get("survivor"); !ok {
		t.Fatal("item died before the 1s flush delay elapsed")
	}
	now += 1
	if _, ok, _ := c.Get("survivor"); ok {
		t.Fatal("item survived past the 1s flush epoch")
	}
	c.Set("second", 0, 0, []byte("v"))
	if got := rawExchange(t, conn, "flush_all 0\r\n"); got != "OK\r\n" {
		t.Fatalf("flush_all 0 = %q, want OK", got)
	}
	if _, ok, _ := c.Get("second"); ok {
		t.Fatal("item survived flush_all 0")
	}
}

// TestIdleConnectionReclaimed is the idle-timeout e2e test: a client that
// goes silent must have its connection (goroutine, accept-pool slot) closed
// by the server after IdleTimeout, while a client with live traffic — even
// traffic slower than the timeout would allow if it ever went fully idle —
// stays connected.
func TestIdleConnectionReclaimed(t *testing.T) {
	s := startServerCfg(t, Config{
		Algo:        "ht-clht-lb",
		Capacity:    1 << 10,
		IdleTimeout: 150 * time.Millisecond,
	})
	// Active client: keeps issuing requests with gaps below the timeout.
	active := dialT(t, s)
	if err := active.Set("k", 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Silent client: connects, proves it is served, then never sends again.
	silent, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if got := rawExchange(t, silent, "version\r\n"); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("version = %q", got)
	}
	// No wait for currConns == 2 here: on a slow machine the silent
	// connection may be reclaimed before we would observe it, which is
	// exactly the behavior under test.

	deadline := time.Now().Add(5 * time.Second)
	for s.currConns.Load() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("silent connection not reclaimed: %d conns", s.currConns.Load())
		}
		// Keep the active connection busy at a sub-timeout cadence.
		if _, _, err := active.Get("k"); err != nil {
			t.Fatalf("active client died: %v", err)
		}
		time.Sleep(40 * time.Millisecond)
	}
	// The reclaimed one was the silent one: the active client still works.
	if _, ok, err := active.Get("k"); err != nil || !ok {
		t.Fatalf("active client after idle reap: %v %v", ok, err)
	}
	// And the silent socket is dead: the next read reports closure.
	silent.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); err == nil {
		t.Fatal("silent connection still open after idle timeout")
	}
}
