package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/server"
	"repro/internal/xrand"
)

// startNodeServers is startNodes, but hands back the servers too so tests
// can kill and resurrect them.
func startNodeServers(t *testing.T, algo string, n int) ([]*server.Server, []string) {
	t.Helper()
	srvs := make([]*server.Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := server.New(server.Config{Addr: "127.0.0.1:0", Algo: algo})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Listen(); err != nil {
			t.Fatal(err)
		}
		go s.Serve()
		t.Cleanup(func() { s.Close() })
		srvs[i] = s
		addrs[i] = s.Addr().String()
	}
	return srvs, addrs
}

// restartNode rebinds a killed node on its old address with an empty store —
// a process reboot, as far as clients can tell.
func restartNode(t *testing.T, algo, addr string) *server.Server {
	t.Helper()
	var s *server.Server
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		s, err = server.New(server.Config{Addr: addr, Algo: algo})
		if err != nil {
			t.Fatal(err)
		}
		if err = s.Listen(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	return s
}

// deadAddr reserves a loopback port nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// keysOwnedBy returns distinct keys that route to node n (prefix-distinct so
// they never collide across calls).
func keysOwnedBy(r *Router, n, count int, prefix string) []string {
	keys := make([]string, 0, count)
	for i := 0; len(keys) < count; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if r.NodeOf(k) == n {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestDialPartialFailureLeaksNothing: when one node of N is unreachable and
// AllowInitialDown is off, Dial must fail AND close the connections it had
// already made to the reachable nodes — a failed boot leaves no sockets
// behind.
func TestDialPartialFailureLeaksNothing(t *testing.T) {
	srvs, addrs := startNodeServers(t, "ht-clht-lb", 2)
	all := append(append([]string(nil), addrs...), deadAddr(t))

	if _, err := Dial(all...); err == nil {
		t.Fatal("Dial with an unreachable node succeeded")
	} else if !strings.Contains(err.Error(), "node 2") {
		t.Fatalf("error does not identify the failed node: %v", err)
	}

	// The two reachable nodes were dialed before the failure; their
	// connections must be gone again. Conn teardown is asynchronous on the
	// server side, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		open := 0
		for _, s := range srvs {
			if v := s.StatsMap()["curr_connections"]; v != "0" {
				open++
			}
		}
		if open == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d nodes still hold connections after failed Dial", open)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDialAllowInitialDown: with AllowInitialDown, an unreachable node boots
// as NodeDown with the reconnector chasing it, and joins once it appears.
func TestDialAllowInitialDown(t *testing.T) {
	_, addrs := startNodeServers(t, "ht-clht-lb", 2)
	hole := deadAddr(t)
	all := append(append([]string(nil), addrs...), hole)

	c, err := DialOptions(Options{
		AllowInitialDown: true,
		Policy:           DegradedMissReads,
		ReconnectWindow:  50 * time.Millisecond,
	}, all...)
	if err != nil {
		t.Fatalf("DialOptions with AllowInitialDown: %v", err)
	}
	defer c.Close()

	if st := c.Health(2).State; st != NodeDown {
		t.Fatalf("unreachable node state = %v, want down", st)
	}
	// Reads owned by the hole degrade to misses; the rest of the cluster
	// serves.
	ghost := keysOwnedBy(c.router, 2, 1, "aid-ghost")[0]
	if _, ok, err := c.Get(ghost); err != nil || ok {
		t.Fatalf("read of down node's key = ok=%v err=%v, want clean miss", ok, err)
	}

	// Bring the node up; the reconnector must adopt it without help.
	restartNode(t, "ht-clht-lb", hole)
	if !c.WaitHealthy(10 * time.Second) {
		t.Fatal("cluster never became healthy after the missing node appeared")
	}
	if err := c.Set(ghost, 0, 0, []byte("v")); err != nil {
		t.Fatalf("write after join: %v", err)
	}
	if e, ok, err := c.Get(ghost); err != nil || !ok || string(e.Data) != "v" {
		t.Fatalf("read-back after join: %+v %v %v", e, ok, err)
	}
}

// TestFailoverDegradedMissReads: kill one node of three under the miss-reads
// policy. Reads of its keys degrade to misses, writes fail fast with
// ErrNodeDown, survivors are untouched, and the circuit stays open (no
// routing to the dead node) until recovery.
func TestFailoverDegradedMissReads(t *testing.T) {
	srvs, addrs := startNodeServers(t, "ht-clht-lb", 3)
	c, err := DialOptions(Options{
		Policy:          DegradedMissReads,
		ReconnectWindow: 50 * time.Millisecond,
	}, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const victim = 1
	vkeys := keysOwnedBy(c.router, victim, 4, "miss-v")
	skeys := keysOwnedBy(c.router, 0, 4, "miss-s")
	for _, k := range append(append([]string(nil), vkeys...), skeys...) {
		if err := c.Set(k, 0, 0, []byte("pre")); err != nil {
			t.Fatalf("preload %s: %v", k, err)
		}
	}

	srvs[victim].Close()

	// The first op after the kill eats the transport error and fails over;
	// from then on the circuit is open. All of these must degrade per
	// policy — reads to misses, writes to ErrNodeDown.
	for i, k := range vkeys {
		if _, ok, err := c.Get(k); err != nil || ok {
			t.Fatalf("read %d of dead node's key: ok=%v err=%v, want miss", i, ok, err)
		}
	}
	for _, k := range vkeys {
		err := c.Set(k, 0, 0, []byte("lost?"))
		if !server.IsDegraded(err) {
			t.Fatalf("write to dead node's key: %v, want degraded ErrNodeDown", err)
		}
	}
	// Multi-get spanning live and dead nodes: dead node's keys miss, live
	// node's keys hit.
	got, err := c.GetMulti(vkeys[0], skeys[0], vkeys[1], skeys[1])
	if err != nil {
		t.Fatalf("GetMulti across a dead node: %v", err)
	}
	if len(got) != 2 || string(got[skeys[0]].Data) != "pre" || string(got[skeys[1]].Data) != "pre" {
		t.Fatalf("GetMulti = %v, want only the two live keys", got)
	}

	// Survivors are fully served.
	for _, k := range skeys {
		if e, ok, err := c.Get(k); err != nil || !ok || string(e.Data) != "pre" {
			t.Fatalf("survivor %s: %+v %v %v", k, e, ok, err)
		}
	}

	if h := c.Health(victim); h.State == NodeUp || h.Failovers == 0 {
		t.Fatalf("victim health = %+v, want failed over", h)
	}
	misses, errs := c.DegradedCounts()
	if misses == 0 || errs == 0 {
		t.Fatalf("DegradedCounts = %d misses, %d errs; want both > 0", misses, errs)
	}
	fo, _ := c.NodeFailovers()
	if fo == 0 {
		t.Fatal("NodeFailovers reports no failovers after a kill")
	}

	// Aggregated stats survive the outage and expose the health.
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats with a node down: %v", err)
	}
	if st["cluster_nodes_up"] != "2" {
		t.Fatalf("cluster_nodes_up = %q, want 2", st["cluster_nodes_up"])
	}
	if got := st[fmt.Sprintf("node%d_state", victim)]; got == "up" {
		t.Fatalf("node%d_state = %q, want suspect or down", victim, got)
	}
}

// TestFailoverFailFast: under the default policy, everything owned by a dead
// node answers ErrNodeDown — reads included.
func TestFailoverFailFast(t *testing.T) {
	srvs, addrs := startNodeServers(t, "ht-clht-lb", 3)
	c, err := DialOptions(Options{ReconnectWindow: 50 * time.Millisecond}, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const victim = 2
	vkey := keysOwnedBy(c.router, victim, 1, "ff-v")[0]
	skey := keysOwnedBy(c.router, 0, 1, "ff-s")[0]
	if err := c.Set(skey, 0, 0, []byte("s")); err != nil {
		t.Fatal(err)
	}

	srvs[victim].Close()

	if _, _, err := c.Get(vkey); !server.IsDegraded(err) {
		t.Fatalf("fail-fast read of dead node's key: %v, want ErrNodeDown", err)
	}
	if err := c.Set(vkey, 0, 0, []byte("x")); !server.IsDegraded(err) {
		t.Fatalf("fail-fast write: %v, want ErrNodeDown", err)
	}
	if _, ok, err := c.Get(skey); err != nil || !ok {
		t.Fatalf("survivor read under fail-fast: ok=%v err=%v", ok, err)
	}
	if _, errs := c.DegradedCounts(); errs < 2 {
		t.Fatalf("degraded errors = %d, want >= 2", errs)
	}
}

// TestFailoverReconnect: a killed node that comes back is re-adopted by the
// background reconnector — no client calls required — and serves again.
func TestFailoverReconnect(t *testing.T) {
	srvs, addrs := startNodeServers(t, "ht-clht-lb", 3)
	c, err := DialOptions(Options{
		Policy:          DegradedMissReads,
		ReconnectWindow: 50 * time.Millisecond,
		DownAfter:       1,
	}, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const victim = 0
	vkey := keysOwnedBy(c.router, victim, 1, "rc-v")[0]
	if err := c.Set(vkey, 0, 0, []byte("before")); err != nil {
		t.Fatal(err)
	}

	srvs[victim].Close()
	if _, ok, err := c.Get(vkey); err != nil || ok {
		t.Fatalf("read after kill: ok=%v err=%v, want miss", ok, err)
	}
	// With DownAfter=1 the first failed reconnect round confirms NodeDown.
	deadline := time.Now().Add(5 * time.Second)
	for c.Health(victim).State != NodeDown {
		if time.Now().After(deadline) {
			t.Fatalf("victim never confirmed down; state=%v", c.Health(victim).State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	restartNode(t, "ht-clht-lb", addrs[victim])
	if !c.WaitHealthy(10 * time.Second) {
		t.Fatal("cluster did not recover after the node restarted")
	}
	h := c.Health(victim)
	if h.Failovers == 0 || h.Reconnects == 0 {
		t.Fatalf("victim health after recovery = %+v, want failover and reconnect counted", h)
	}

	// The store restarted empty: the old value is gone (a real restart), and
	// new writes land and read back through the same client.
	if _, ok, err := c.Get(vkey); err != nil || ok {
		t.Fatalf("restarted node should miss: ok=%v err=%v", ok, err)
	}
	if err := c.Set(vkey, 0, 0, []byte("after")); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if e, ok, err := c.Get(vkey); err != nil || !ok || string(e.Data) != "after" {
		t.Fatalf("read-back after recovery: %+v %v %v", e, ok, err)
	}
}

// TestFailoverFaultyDialer: run a keyspace workload through connections that
// randomly inject resets (the faultnet NodeDialer seam). Every operation
// must finish as a success, a miss, or a degraded error — never a raw
// transport error or a hang — and the client must end the run recoverable.
func TestFailoverFaultyDialer(t *testing.T) {
	_, addrs := startNodeServers(t, "ht-clht-lb", 3)
	dialer := func(addr string, timeout time.Duration) (*server.Client, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return server.NewClientConn(faultnet.New(nc, faultnet.Config{
			Seed:      0xfa117,
			ResetProb: 0.003,
		})), nil
	}
	c, err := DialOptions(Options{
		Policy:          DegradedMissReads,
		ReconnectWindow: 100 * time.Millisecond,
		NodeDialer:      dialer,
	}, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := xrand.New(7)
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("fd-%d", rng.Uint64n(64))
		var err error
		switch rng.Uint64n(3) {
		case 0:
			err = c.Set(k, 0, 0, []byte("v"))
		case 1:
			_, _, err = c.Get(k)
		case 2:
			_, err = c.Delete(k)
		}
		if err != nil && !server.IsDegraded(err) {
			t.Fatalf("op %d: non-degraded error leaked through failover: %v", i, err)
		}
	}
	// The servers are healthy; once the chaos conns settle the client must
	// be able to recover every node.
	if !c.WaitHealthy(10 * time.Second) {
		for i := range c.nstates {
			t.Logf("node %d: %+v", i, c.Health(i))
		}
		t.Fatal("client not recoverable after faulty-dialer run")
	}
}

// ---------------------------------------------------------------------------
// The chaos gate: kill and restart a node mid-stream, under load, and demand
// byte-identical responses to a single reference server.
//
// The stream touches two key families:
//
//   - survivor keys: owned by nodes that stay up. Their reads, writes,
//     deletes, and counters must behave exactly as on the reference server
//     throughout the outage — acknowledged writes on survivors cannot be
//     lost or reordered by a failover elsewhere.
//   - ghost keys: owned by the victim, and NEVER written anywhere. A get
//     answers END on the reference (never stored), END from the live victim
//     (not found), and END synthesized under the miss-reads policy while the
//     victim is down or mid-reconnect — byte-identical in every phase, no
//     matter when the kill lands.
//
// That construction makes the differential fully deterministic even though
// the kill/restart timing races the stream.
// ---------------------------------------------------------------------------

// genChaosStream builds n batches of commands over survivor and ghost keys.
func genChaosStream(rng *xrand.State, r *Router, victim, batches int) [][]byte {
	skey := func() string {
		for {
			k := fmt.Sprintf("ck%d", rng.Uint64n(48))
			if r.NodeOf(k) != victim {
				return k
			}
		}
	}
	gkey := func() string {
		for {
			k := fmt.Sprintf("ghost%d", rng.Uint64n(16))
			if r.NodeOf(k) == victim {
				return k
			}
		}
	}
	out := make([][]byte, 0, batches)
	for i := 0; i < batches; i++ {
		var b strings.Builder
		for j := 0; j < 4; j++ {
			switch rng.Uint64n(8) {
			case 0, 1:
				fmt.Fprintf(&b, "get %s\r\n", skey())
			case 2:
				// Mixed multi-get: survivors hit or miss, ghosts always miss.
				fmt.Fprintf(&b, "get %s %s %s\r\n", skey(), gkey(), skey())
			case 3:
				fmt.Fprintf(&b, "get %s\r\n", gkey())
			case 4, 5:
				val := strings.Repeat("w", int(rng.Uint64n(40)))
				nr := ""
				if rng.Uint64n(4) == 0 {
					nr = " noreply"
				}
				fmt.Fprintf(&b, "set %s %d 0 %d%s\r\n%s\r\n", skey(), rng.Uint64n(9), len(val), nr, val)
			case 6:
				fmt.Fprintf(&b, "delete %s\r\n", skey())
			case 7:
				fmt.Fprintf(&b, "incr %s %d\r\n", skey(), rng.Uint64n(100))
			}
		}
		out = append(out, []byte(b.String()))
	}
	return out
}

// runStream feeds batches to w with a small pacing delay, invoking chaos
// hooks keyed by batch index, then closes the stream.
func runStream(t *testing.T, w io.WriteCloser, batches [][]byte, hooks map[int]func()) {
	t.Helper()
	defer w.Close()
	for i, b := range batches {
		if hook := hooks[i]; hook != nil {
			hook()
		}
		if _, err := w.Write(b); err != nil {
			t.Errorf("stream write %d: %v", i, err)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := w.Write([]byte("quit\r\n")); err != nil {
		t.Errorf("stream quit: %v", err)
	}
}

// TestChaosKillRestartDifferential is the chaos gate proper.
func TestChaosKillRestartDifferential(t *testing.T) {
	const (
		algo    = "ht-clht-lb"
		victim  = 1
		batches = 300
		killAt  = 60
		bootAt  = 180
	)
	rng := xrand.New(42)
	stream := genChaosStream(rng, NewRouter(3), victim, batches)

	// Reference: one server, whole keyspace, same bytes in.
	var flat []byte
	for _, b := range stream {
		flat = append(flat, b...)
	}
	flat = append(flat, []byte("quit\r\n")...)
	want := collectSingle(t, algo, false, flat, 1<<20)

	// Cluster under chaos.
	srvs, addrs := startNodeServers(t, algo, 3)
	c, err := DialOptions(Options{
		Policy:          DegradedMissReads,
		ReconnectWindow: 50 * time.Millisecond,
	}, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pr, pw := io.Pipe()
	hooks := map[int]func(){
		killAt: func() { srvs[victim].Close() },
		bootAt: func() { srvs[victim] = restartNode(t, algo, addrs[victim]) },
	}
	go runStream(t, pw, stream, hooks)

	var got bytes.Buffer
	if err := c.ServeStream(pr, &got); err != nil {
		t.Fatalf("ServeStream under chaos: %v", err)
	}

	if !bytes.Equal(want, got.Bytes()) {
		g := got.Bytes()
		i := 0
		for i < len(want) && i < len(g) && want[i] == g[i] {
			i++
		}
		lo := i - 160
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("chaos run diverges from reference at byte %d\nsingle:  %q\ncluster: %q",
			i, tail(want, lo, i+160), tail(g, lo, i+160))
	}

	// The kill must actually have been seen and healed: at least one
	// failover, and full recovery without intervention.
	fo, _ := c.NodeFailovers()
	if fo == 0 {
		t.Fatal("chaos run recorded no failovers — the kill window never hit the wire")
	}
	if !c.WaitHealthy(10 * time.Second) {
		t.Fatal("cluster did not recover after the restart")
	}
	if h := c.Health(victim); h.Reconnects == 0 {
		t.Fatalf("victim reconnects = 0 after recovery; health %+v", h)
	}

	// No acknowledged-write loss on survivors: the reference server and the
	// recovered cluster agree on every surviving key's final value.
	ref := dialRef(t, algo, flat)
	defer ref.Close()
	for i := 0; i < 48; i++ {
		k := fmt.Sprintf("ck%d", i)
		if NewRouter(3).NodeOf(k) == victim {
			continue
		}
		re, rok, rerr := ref.Get(k)
		ce, cok, cerr := c.Get(k)
		if rerr != nil || cerr != nil {
			t.Fatalf("final verify %s: ref err %v, cluster err %v", k, rerr, cerr)
		}
		if rok != cok || (rok && !bytes.Equal(re.Data, ce.Data)) {
			t.Fatalf("final verify %s: ref ok=%v %q, cluster ok=%v %q",
				k, rok, re.Data, cok, ce.Data)
		}
	}
}

// dialRef replays the stream into a fresh reference server and returns a
// client on it, for final-state comparison.
func dialRef(t *testing.T, algo string, stream []byte) *server.Client {
	t.Helper()
	s, err := server.New(server.Config{Addr: "127.0.0.1:0", Algo: algo})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })

	// Replay on a throwaway conn (the stream ends in quit), then hand back a
	// clean client for the final-state reads.
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	go nc.Write(stream)
	io.Copy(io.Discard, nc)
	nc.Close()

	c, err := server.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return c
}
