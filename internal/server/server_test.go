package server

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer boots a server on a loopback ephemeral port and returns it
// with a cleanup.
func startServer(t *testing.T, algo string) *Server {
	t.Helper()
	s, err := New(Config{Addr: "127.0.0.1:0", Algo: algo, Capacity: 1 << 10})
	if err != nil {
		t.Fatalf("New(%s): %v", algo, err)
	}
	if err := s.Listen(); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	return s
}

func dialT(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerEndToEnd(t *testing.T) {
	for _, algo := range []string{"ht-clht-lb", "ht-clht-lf", "sl-fraser-opt", "bst-tk"} {
		t.Run(algo, func(t *testing.T) {
			s := startServer(t, algo)
			c := dialT(t, s)

			if v, err := c.Version(); err != nil || v != Version {
				t.Fatalf("Version = %q, %v", v, err)
			}
			if _, ok, err := c.Get("absent"); err != nil || ok {
				t.Fatalf("Get(absent) = %v, %v", ok, err)
			}
			if err := c.Set("greeting", 42, 0, []byte("hello world")); err != nil {
				t.Fatalf("Set: %v", err)
			}
			e, ok, err := c.Get("greeting")
			if err != nil || !ok || string(e.Data) != "hello world" || e.Flags != 42 {
				t.Fatalf("Get(greeting) = %+v, %v, %v", e, ok, err)
			}

			// add/replace discipline.
			if stored, _ := c.Add("greeting", 0, 0, []byte("nope")); stored {
				t.Fatal("Add over existing key stored")
			}
			if stored, _ := c.Add("fresh", 0, 0, []byte("first")); !stored {
				t.Fatal("Add of fresh key did not store")
			}
			if stored, _ := c.Replace("missing", 0, 0, []byte("x")); stored {
				t.Fatal("Replace of missing key stored")
			}
			if stored, _ := c.Replace("fresh", 0, 0, []byte("second")); !stored {
				t.Fatal("Replace of existing key did not store")
			}

			// gets + cas.
			e, ok, err = c.Gets("fresh")
			if err != nil || !ok || e.CAS == 0 {
				t.Fatalf("Gets = %+v, %v, %v", e, ok, err)
			}
			if stored, _ := c.Cas("fresh", 0, 0, []byte("third"), e.CAS); !stored {
				t.Fatal("Cas with fresh token did not store")
			}
			if stored, _ := c.Cas("fresh", 0, 0, []byte("stale"), e.CAS); stored {
				t.Fatal("Cas with stale token stored")
			}

			// Multi-get.
			got, err := c.GetMulti("greeting", "absent", "fresh")
			if err != nil || len(got) != 2 {
				t.Fatalf("GetMulti = %v, %v", got, err)
			}
			if string(got["fresh"].Data) != "third" {
				t.Fatalf("GetMulti[fresh] = %q", got["fresh"].Data)
			}

			// delete.
			if ok, _ := c.Delete("greeting"); !ok {
				t.Fatal("Delete of existing key missed")
			}
			if ok, _ := c.Delete("greeting"); ok {
				t.Fatal("double Delete hit")
			}

			// incr/decr.
			if err := c.Set("ctr", 0, 0, []byte("10")); err != nil {
				t.Fatal(err)
			}
			if v, ok, _ := c.Incr("ctr", 5); !ok || v != 15 {
				t.Fatalf("Incr = %d, %v", v, ok)
			}
			if v, ok, _ := c.Decr("ctr", 100); !ok || v != 0 {
				t.Fatalf("Decr floor = %d, %v", v, ok)
			}
			if _, ok, _ := c.Incr("absent", 1); ok {
				t.Fatal("Incr of absent key succeeded")
			}
			c.Set("text", 0, 0, []byte("abc"))
			if _, _, err := c.Incr("text", 1); err == nil ||
				!strings.Contains(err.Error(), "non-numeric") {
				t.Fatalf("Incr of non-numeric value: %v", err)
			}

			// stats.
			st, err := c.Stats()
			if err != nil {
				t.Fatalf("Stats: %v", err)
			}
			if st["algo"] != algo {
				t.Fatalf("stats algo = %q, want %q", st["algo"], algo)
			}
			if st["cmd_set"] == "0" || st["get_hits"] == "0" {
				t.Fatalf("stats counters flat: %v", st)
			}
		})
	}
}

func TestServerPipelining(t *testing.T) {
	s := startServer(t, "ht-clht-lb")
	c := dialT(t, s)
	const n = 200
	// Queue n sets and n gets without reading a single response.
	for i := 0; i < n; i++ {
		if err := c.SendStore("set", fmt.Sprintf("p%d", i), 0, 0,
			[]byte(fmt.Sprintf("v%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := c.SendGet(false, fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if ok, err := c.RecvStored(); err != nil || !ok {
			t.Fatalf("pipelined set %d: %v, %v", i, ok, err)
		}
	}
	for i := 0; i < n; i++ {
		es, err := c.RecvGet()
		if err != nil || len(es) != 1 || string(es[0].Data) != fmt.Sprintf("v%d", i) {
			t.Fatalf("pipelined get %d: %v, %v", i, es, err)
		}
	}
}

func TestServerNoreplyAndErrors(t *testing.T) {
	s := startServer(t, "ht-clht-lb")
	// Raw-wire session: noreply suppresses responses, malformed commands
	// produce error lines without desynchronizing the connection.
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw := "set k1 0 0 2 noreply\r\nhi\r\n" + // no response expected
		"bogus\r\n" + // ERROR
		"get k1\r\n" // VALUE stanza
	if _, err := conn.Write([]byte(raw)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	deadline := time.Now().Add(2 * time.Second)
	conn.SetReadDeadline(deadline)
	var got string
	for !strings.Contains(got, "END\r\n") {
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("read: %v (got %q)", err, got)
		}
		got += string(buf[:n])
	}
	want := "ERROR\r\nVALUE k1 0 2\r\nhi\r\nEND\r\n"
	if got != want {
		t.Fatalf("wire response = %q, want %q", got, want)
	}
}

func TestServerExpiry(t *testing.T) {
	s := startServer(t, "ht-clht-lb")
	// Drive the store's clock directly to avoid sleeping.
	now := time.Now().Unix()
	s.Store().now = func() int64 { return now }
	c := dialT(t, s)
	if err := c.Set("ttl", 0, 10, []byte("short-lived")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("ttl"); !ok {
		t.Fatal("item invisible before expiry")
	}
	now += 11
	if _, ok, _ := c.Get("ttl"); ok {
		t.Fatal("item visible after expiry")
	}
	// An expired item is absent to add.
	if stored, _ := c.Add("ttl", 0, 0, []byte("new")); !stored {
		t.Fatal("Add over expired item did not store")
	}
}

func TestServerFlushAll(t *testing.T) {
	s := startServer(t, "ht-clht-lb")
	now := time.Now().Unix()
	s.Store().now = func() int64 { return now }
	c := dialT(t, s)

	// Immediate flush kills existing items, even within the same second.
	c.Set("a", 0, 0, []byte("1"))
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("a"); ok {
		t.Fatal("item survived immediate flush_all")
	}
	// Items stored after the flush are live.
	c.Set("b", 0, 0, []byte("2"))
	if _, ok, _ := c.Get("b"); !ok {
		t.Fatal("post-flush store is dead")
	}

	// Delayed flush: nothing dies until the epoch arrives. The epoch
	// anchors at the pin's timestamp, as it would for a wire flush_all.
	fp := s.Store().Pin()
	s.Store().FlushAll(fp, 60)
	fp.Unpin()
	if _, ok, _ := c.Get("b"); !ok {
		t.Fatal("item died before the flush delay elapsed")
	}
	now += 61
	if _, ok, _ := c.Get("b"); ok {
		t.Fatal("item survived past the flush epoch")
	}
	// replace/incr treat it as gone; add may take the key over.
	if stored, _ := c.Replace("b", 0, 0, []byte("x")); stored {
		t.Fatal("Replace revived a flushed item")
	}
	if stored, _ := c.Add("b", 0, 0, []byte("3")); !stored {
		t.Fatal("Add over flushed item did not store")
	}
	if e, ok, _ := c.Get("b"); !ok || string(e.Data) != "3" {
		t.Fatalf("Get after re-add = %+v, %v", e, ok)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	s := startServer(t, "ht-clht-lf")
	const clients, rounds = 8, 150
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
	// Shared counter across connections must be exact.
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
