package server

import (
	"net"
	"testing"
	"time"
)

// reserveAddr grabs an ephemeral loopback port and releases it, returning an
// address nothing is listening on (yet).
func reserveAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestDialRetryLateListener: DialRetry must absorb a server that binds
// after the client starts dialing — a client started alongside a still
// booting ascyserve.
func TestDialRetryLateListener(t *testing.T) {
	addr := reserveAddr(t)
	go func() {
		time.Sleep(150 * time.Millisecond)
		s, err := New(Config{Addr: addr, Algo: "ht-clht-lb"})
		if err != nil {
			return
		}
		if err := s.Listen(); err != nil {
			return
		}
		go s.Serve()
		t.Cleanup(func() { s.Close() })
	}()

	start := time.Now()
	c, err := DialRetry(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("DialRetry: %v (after %v)", err, time.Since(start))
	}
	defer c.Close()
	if err := c.Set("k", 1, 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	e, ok, err := c.Get("k")
	if err != nil || !ok || string(e.Data) != "v" {
		t.Fatalf("get after retry dial: ok=%v err=%v entry=%+v", ok, err, e)
	}
}

// TestDialRetryZeroTimeout: with no retry window, a dead address must fail
// immediately — DialRetry(addr, 0) is plain Dial.
func TestDialRetryZeroTimeout(t *testing.T) {
	addr := reserveAddr(t)
	start := time.Now()
	if _, err := DialRetry(addr, 0); err == nil {
		t.Fatal("DialRetry of a dead address with zero timeout did not error")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("zero-timeout dial took %v, expected an immediate failure", d)
	}
}

// TestDialRetryExpires: the retry window is a deadline, not a hint — a dead
// address must error once it elapses, not spin forever.
func TestDialRetryExpires(t *testing.T) {
	addr := reserveAddr(t)
	start := time.Now()
	if _, err := DialRetry(addr, 200*time.Millisecond); err == nil {
		t.Fatal("DialRetry of a dead address did not error after the window")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("200ms retry window took %v to give up", d)
	}
}
