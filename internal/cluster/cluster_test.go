package cluster

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/server"
)

// startNodes boots n independent in-process servers on loopback ephemeral
// ports and returns their addresses in cluster (routing) order. Each node is
// a complete, cluster-oblivious ascyserve: its own store, its own stats, no
// knowledge of its siblings — the deployment shape the launcher script boots
// as separate processes.
func startNodes(t *testing.T, algo string, n int) []string {
	return startNodesOrdered(t, algo, n, false)
}

// startNodesOrdered is startNodes with the servers' ordered-keyspace mode
// selectable — the scan differentials need ordered nodes, everything else
// keeps the default.
func startNodesOrdered(t *testing.T, algo string, n int, ordered bool) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := server.New(server.Config{Addr: "127.0.0.1:0", Algo: algo, Ordered: ordered})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Listen(); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { s.Serve(); close(done) }()
		t.Cleanup(func() { s.Close(); <-done })
		addrs[i] = s.Addr().String()
	}
	return addrs
}

// TestClusterBasicOps drives the synchronous surface across 4 nodes: every
// key must be stored, readable, countable, and deletable through the router,
// and with a few hundred keys every node must end up serving some of them.
func TestClusterBasicOps(t *testing.T) {
	addrs := startNodes(t, "ht-clht-lb", 4)
	c, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200
	for i := 0; i < n; i++ {
		k := "k" + strconv.Itoa(i)
		if err := c.Set(k, uint32(i), 0, []byte("v"+strconv.Itoa(i))); err != nil {
			t.Fatalf("set %s: %v", k, err)
		}
	}
	for i := 0; i < n; i++ {
		k := "k" + strconv.Itoa(i)
		e, ok, err := c.Get(k)
		if err != nil || !ok {
			t.Fatalf("get %s: ok=%v err=%v", k, ok, err)
		}
		if string(e.Data) != "v"+strconv.Itoa(i) || e.Flags != uint32(i) {
			t.Fatalf("get %s: entry %+v", k, e)
		}
	}
	if _, ok, _ := c.Get("absent"); ok {
		t.Fatal("absent key found")
	}
	if v, ok, err := c.Incr("k0", 0); err == nil && ok {
		t.Fatalf("incr of non-numeric value unexpectedly ok (%d)", v)
	}
	if err := c.Set("ctr", 0, 0, []byte("41")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Incr("ctr", 1); err != nil || !ok || v != 42 {
		t.Fatalf("incr: %d %v %v", v, ok, err)
	}
	if v, ok, err := c.Decr("ctr", 2); err != nil || !ok || v != 40 {
		t.Fatalf("decr: %d %v %v", v, ok, err)
	}
	if stored, err := c.Add("k0", 0, 0, []byte("nope")); err != nil || stored {
		t.Fatalf("add over existing key: stored=%v err=%v", stored, err)
	}
	for i := 0; i < n; i += 2 {
		k := "k" + strconv.Itoa(i)
		if ok, err := c.Delete(k); err != nil || !ok {
			t.Fatalf("delete %s: ok=%v err=%v", k, ok, err)
		}
		if _, ok, _ := c.Get(k); ok {
			t.Fatalf("deleted key %s still visible", k)
		}
	}
	for i, r := range c.NodeReqs() {
		if r == 0 {
			t.Fatalf("node %d (%s) served no requests over %d keys", i, addrs[i], n)
		}
	}
}

// TestClusterGetMulti: a multi-key get spanning all nodes must return
// exactly the present keys, whatever nodes they live on.
func TestClusterGetMulti(t *testing.T) {
	addrs := startNodes(t, "ht-clht-lb", 4)
	c, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]string, 32)
	for i := range keys {
		keys[i] = "mk" + strconv.Itoa(i)
		if i%2 == 0 {
			if err := c.Set(keys[i], 0, 0, []byte("val"+strconv.Itoa(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := c.GetMulti(keys...)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		e, ok := got[k]
		if want := i%2 == 0; ok != want {
			t.Fatalf("key %s: present=%v want %v", k, ok, want)
		}
		if ok && string(e.Data) != "val"+strconv.Itoa(i) {
			t.Fatalf("key %s: data %q", k, e.Data)
		}
	}
}

// TestClusterPipelined queues a mixed burst through the explicit Send*/Recv*
// halves and checks the responses come back in request
// order across the node fan-out, including split multi-gets mid-burst.
func TestClusterPipelined(t *testing.T) {
	addrs := startNodes(t, "ll-lazy", 4)
	c, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	for i := 0; i < n; i++ {
		if err := c.SendStore("set", "p"+strconv.Itoa(i), 0, 0, []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
		if err := c.SendStore("set", "d"+strconv.Itoa(i), 0, 0, []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*n; i++ {
		if ok, err := c.RecvStored(); err != nil || !ok {
			t.Fatalf("set %d: stored=%v err=%v", i, ok, err)
		}
	}

	// Interleave single gets (hit and miss), split multi-gets, and deletes.
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			if err := c.SendGet1(false, "p"+strconv.Itoa(i)); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := c.SendGet(false, "p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := c.SendGet1(false, "missing"+strconv.Itoa(i)); err != nil {
				t.Fatal(err)
			}
		case 3:
			// Deletes target the d-range so the pipelined multi-gets above
			// and below still see all eight p-keys.
			if err := c.SendDelete("d" + strconv.Itoa(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			if es, _, err := c.RecvGetN(); err != nil || es != 1 {
				t.Fatalf("get %d: entries=%d err=%v", i, es, err)
			}
		case 1:
			if es, bytes, err := c.RecvGetN(); err != nil || es != 8 || bytes != 8 {
				t.Fatalf("multi-get %d: entries=%d bytes=%d err=%v", i, es, bytes, err)
			}
		case 2:
			if es, _, err := c.RecvGetN(); err != nil || es != 0 {
				t.Fatalf("miss %d: entries=%d err=%v", i, es, err)
			}
		case 3:
			if ok, err := c.RecvDeleted(); err != nil || !ok {
				t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
			}
		}
	}
	// Receive with nothing outstanding must fail loudly, not hang or lie.
	if _, _, err := c.RecvGetN(); err == nil {
		t.Fatal("RecvGetN with no pending request did not error")
	}
}

// TestClusterFlushAll: the one mutating broadcast must empty every node.
func TestClusterFlushAll(t *testing.T) {
	addrs := startNodes(t, "ht-clht-lb", 4)
	c, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 64; i++ {
		if err := c.Set("f"+strconv.Itoa(i), 0, 0, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, ok, _ := c.Get("f" + strconv.Itoa(i)); ok {
			t.Fatalf("key f%d survived flush_all", i)
		}
	}
	per, err := c.NodeStats()
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range per {
		if st["curr_items"] != "0" {
			t.Fatalf("node %d holds %s items after flush_all", i, st["curr_items"])
		}
	}
}

// TestClusterStats: the aggregate view must sum the additive counters,
// recompute the batch-depth quotient, and expose the cluster-level fields.
func TestClusterStats(t *testing.T) {
	addrs := startNodes(t, "ht-clht-lb", 3)
	c, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const sets, gets = 90, 60
	for i := 0; i < sets; i++ {
		if err := c.Set("s"+strconv.Itoa(i), 0, 0, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < gets; i++ {
		if _, _, err := c.Get("s" + strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["cluster_nodes"] != "3" {
		t.Fatalf("cluster_nodes = %q", st["cluster_nodes"])
	}
	if st["algo"] != "ht-clht-lb" {
		t.Fatalf("algo = %q", st["algo"])
	}
	if got, _ := strconv.Atoi(st["cmd_set"]); got != sets {
		t.Fatalf("cmd_set = %s, want %d (summed across nodes)", st["cmd_set"], sets)
	}
	if got, _ := strconv.Atoi(st["cmd_get"]); got != gets {
		t.Fatalf("cmd_get = %s, want %d", st["cmd_get"], gets)
	}
	if got, _ := strconv.Atoi(st["get_hits"]); got != gets {
		t.Fatalf("get_hits = %s, want %d", st["get_hits"], gets)
	}
	var nodeReqs uint64
	for i := range addrs {
		v, ok := st["node"+strconv.Itoa(i)+"_reqs"]
		if !ok {
			t.Fatalf("missing node%d_reqs in aggregated stats", i)
		}
		n, _ := strconv.ParseUint(v, 10, 64)
		nodeReqs += n
	}
	if want := uint64(sets + gets); nodeReqs != want {
		t.Fatalf("per-node reqs sum to %d, want %d", nodeReqs, want)
	}
	if _, err := strconv.ParseFloat(st["batch_depth_avg"], 64); err != nil {
		t.Fatalf("batch_depth_avg = %q: %v", st["batch_depth_avg"], err)
	}
}

// TestClusterGetPathZeroAlloc is the scale-out allocation gate: the routed
// get path — rendezvous route, route-ring push, node send, flush, ring pop,
// discarding receive — must allocate nothing per operation in steady state,
// for both the single-key hot path and the counting-sort split multi-get.
// The servers run in-process, so the measurement covers their (also
// allocation-free) serving path too: the whole process must be silent.
func TestClusterGetPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops Puts at random, so the server's Pin() allocates")
	}
	addrs := startNodes(t, "ht-clht-lb", 4)
	c, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = "alloc" + strconv.Itoa(i)
		if err := c.Set(keys[i], 0, 0, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	steps := map[string]func(){
		"get1": func() {
			if err := c.SendGet1(false, keys[3]); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if es, _, err := c.RecvGetN(); err != nil || es != 1 {
				t.Fatalf("entries=%d err=%v", es, err)
			}
		},
		"multiget-split": func() {
			if err := c.SendGet(false, keys...); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if es, _, err := c.RecvGetN(); err != nil || es != len(keys) {
				t.Fatalf("entries=%d err=%v", es, err)
			}
		},
	}
	for name, step := range steps {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 256; i++ {
				step() // steady state: scratch sized, ring grown, pools primed
			}
			if avg := testing.AllocsPerRun(512, step); avg != 0 {
				t.Fatalf("cluster %s allocates %.2f/op, want 0", name, avg)
			}
		})
	}
}

// TestClusterDialRetry: the cluster dial must absorb a node that binds late
// (a client started alongside N booting processes), and a
// failed dial must close the connections it already opened.
func TestClusterDialRetry(t *testing.T) {
	addrs := startNodes(t, "ht-clht-lb", 2)
	// A port nobody is listening on yet, grabbed and released.
	s, err := server.New(server.Config{Addr: "127.0.0.1:0", Algo: "ht-clht-lb"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	late := s.Addr().String()
	s.Close()

	if _, err := Dial(append([]string{late}, addrs...)...); err == nil {
		t.Fatal("Dial of a dead node did not error")
	}

	go func() {
		time.Sleep(100 * time.Millisecond)
		s2, err := server.New(server.Config{Addr: late, Algo: "ht-clht-lb"})
		if err != nil {
			return
		}
		if err := s2.Listen(); err != nil {
			return
		}
		go s2.Serve()
		t.Cleanup(func() { s2.Close() })
	}()
	c, err := DialRetry(5*time.Second, append([]string{late}, addrs...)...)
	if err != nil {
		t.Fatalf("DialRetry did not absorb the late-bound node: %v", err)
	}
	defer c.Close()
	if err := c.Set("k", 0, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get("k"); err != nil || !ok {
		t.Fatalf("cluster unusable after retry dial: %v %v", ok, err)
	}
}

var _ = fmt.Sprintf // keep fmt imported for future debug use
