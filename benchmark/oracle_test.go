package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
)

// hit renders the reply stanza a correct server sends for id.
func hit(wl *workload, id uint32) string {
	return fmt.Sprintf("VALUE %s %d %d\r\n%s\r\n", appendKey(nil, wl, id), flagsOf(id), wl.valueLen, valueOf(id, wl.valueLen))
}

func TestCheckReply(t *testing.T) {
	churn, get, scan := findWorkload("wire-churn"), findWorkload("wire-get"), findWorkload("wire-scan")
	pinned, unpinned, absent := uint32(5), uint32(churn.keys/2+5), uint32(get.keys+5)
	corrupt := []byte(hit(churn, pinned) + "END\r\n")
	corrupt[len(corrupt)-20] ^= 0x40
	var fullScan strings.Builder
	for id := uint32(100); id < 100+uint32(scan.scanLen); id++ {
		fullScan.WriteString(hit(scan, id))
	}
	holedScan := strings.Replace(fullScan.String(), hit(scan, 110), "", 1)
	unpinnedScan := uint32(scan.keys/2 + 100)
	var highScan strings.Builder
	for id := unpinnedScan; id < unpinnedScan+uint32(scan.scanLen); id++ {
		highScan.WriteString(hit(scan, id))
	}

	for _, c := range []struct {
		name  string
		wl    *workload
		op    op
		reply string
		ok    bool
		hits  int
	}{
		{"hit", churn, op{kind: opGet, id: pinned}, hit(churn, pinned) + "END\r\n", true, 1},
		{"corrupted value", churn, op{kind: opGet, id: pinned}, string(corrupt), false, 1},
		{"dropped pinned key", churn, op{kind: opGet, id: pinned}, "END\r\n", false, 0},
		{"unpinned miss", churn, op{kind: opGet, id: unpinned}, "END\r\n", true, 0},
		{"unpinned hit", churn, op{kind: opGet, id: unpinned}, hit(churn, unpinned) + "END\r\n", true, 1},
		{"another key's value", churn, op{kind: opGet, id: pinned}, hit(churn, pinned+1) + "END\r\n", false, 1},
		{"two values for one key", churn, op{kind: opGet, id: pinned}, hit(churn, pinned) + hit(churn, pinned) + "END\r\n", false, 2},
		{"absent miss", get, op{kind: opGet, id: absent}, "END\r\n", true, 0},
		{"absent hit", get, op{kind: opGet, id: absent}, hit(get, absent) + "END\r\n", false, 1},
		{"server error", get, op{kind: opGet, id: pinned}, "SERVER_ERROR out of memory\r\n", false, 0},
		{"stored", get, op{kind: opSet, id: pinned}, "STORED\r\n", true, 0},
		{"not stored", get, op{kind: opSet, id: pinned}, "NOT_STORED\r\n", false, 0},
		{"deleted", churn, op{kind: opDelete, id: unpinned}, "DELETED\r\n", true, 0},
		{"delete miss", churn, op{kind: opDelete, id: unpinned}, "NOT_FOUND\r\n", true, 0},
		{"delete error", churn, op{kind: opDelete, id: unpinned}, "ERROR\r\n", false, 0},
		{"scan", scan, op{kind: opScan, id: 100}, fullScan.String() + "END\r\n", true, scan.scanLen},
		{"scan with a hole", scan, op{kind: opScan, id: 100}, holedScan + "END\r\n", false, scan.scanLen - 1},
		{"scan with an unpinned hole", scan, op{kind: opScan, id: unpinnedScan}, strings.Replace(highScan.String(), hit(scan, unpinnedScan+3), "", 1) + "END\r\n", true, scan.scanLen - 1},
		{"scan out of range", scan, op{kind: opScan, id: 101}, fullScan.String() + "END\r\n", false, scan.scanLen},
	} {
		full := []byte(c.reply + "STORED\r\n") // the next reply must be left alone
		n, ok, hits := checkReply(c.wl, c.op, full)
		if n != len(c.reply) || ok != c.ok || hits != c.hits {
			t.Errorf("%s: checkReply = (%d, %v, %d), want (%d, %v, %d)", c.name, n, ok, hits, len(c.reply), c.ok, c.hits)
		}
		// Every proper prefix is incomplete, never wrong or consumed.
		for cut := 0; cut < len(c.reply); cut++ {
			if n, _, _ := checkReply(c.wl, c.op, full[:cut]); n != 0 {
				t.Errorf("%s: %d of %d bytes consumed %d", c.name, cut, len(c.reply), n)
				break
			}
		}
	}
	if n, _, _ := checkReply(get, op{kind: opGet}, []byte("VALUE k 1 notanumber\r\n")); n >= 0 {
		t.Errorf("unframeable stanza consumed %d", n)
	}
	if n, _, _ := checkReply(get, op{kind: opSet}, bytes.Repeat([]byte{'x'}, maxReplyLine+1)); n >= 0 {
		t.Errorf("endless line consumed %d", n)
	}
}

// fakeServer answers the tape's requests over c. It answers like a correct
// server, except that it flips one byte of the value of get number corrupt
// and answers get number drop with a miss (negative: never).
func fakeServer(t *testing.T, wl *workload, c net.Conn, corrupt, drop int) {
	// net.Pipe has no buffer, so replies are written by a second goroutine
	// while this one keeps reading what the driver pipelines.
	replies := make(chan string, 64) // more than the test ever has in flight
	defer close(replies)
	go func() {
		defer c.Close()
		for reply := range replies {
			// One byte at a time: the driver must cope with any fragmentation.
			for i := 0; i < len(reply); i++ {
				if _, err := c.Write([]byte{reply[i]}); err != nil {
					return
				}
			}
		}
	}()
	r := bufio.NewReader(c)
	gets := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		f := strings.Fields(line)
		reply := "STORED\r\n"
		switch f[0] {
		case "set":
			if _, err := r.Discard(wl.valueLen + 2); err != nil {
				t.Error(err)
				return
			}
		case "get":
			id, _ := keyID(wl, []byte(f[1]))
			reply = hit(wl, id) + "END\r\n"
			if gets == corrupt {
				b := []byte(reply)
				b[len(b)-10] ^= 1
				reply = string(b)
			} else if gets == drop {
				reply = "END\r\n"
			}
			gets++
		}
		replies <- reply
	}
}

// TestWrongAnswersFailTheRun drives the real connection loop against a
// server that lies once, and follows the failure to the exit status.
func TestWrongAnswersFailTheRun(t *testing.T) {
	wl := findWorkload("wire-rr")
	tp := sequentialTape(wl, opSet, 0, 8)
	for id := uint32(0); id < 8; id++ {
		tp.add(wl, opGet, id)
	}
	for name, c := range map[string]struct{ corrupt, drop, failed int }{
		"honest":             {-1, -1, 0},
		"corrupted reply":    {3, -1, 1},
		"dropped pinned key": {-1, 5, 1},
	} {
		client, server := net.Pipe()
		go fakeServer(t, wl, server, c.corrupt, c.drop)
		ld := newLoad(1, false)
		wc := &wireConn{wl: wl, c: client, tape: tp, window: 4, stats: ld.workers[0], buf: make([]byte, 4096), sentAt: make([]int64, 4)}
		if err := wc.run(ld, len(tp.ops)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		client.Close()
		res := &result{Attempted: ld.workers[0].ops.Load(), Failed: ld.workers[0].failed.Load(), EndToEnd: map[string]float64{}}
		if res.Attempted != 16 || int(res.Failed) != c.failed {
			t.Errorf("%s: %d attempted, %d failed; want 16, %d", name, res.Attempted, res.Failed, c.failed)
		}
		wantStatus := 0
		if c.failed > 0 {
			wantStatus = 1
		}
		if (res.failedShare() > 0) != (c.failed > 0) || exitStatus([]*result{res}) != wantStatus {
			t.Errorf("%s: failed_share %v, exit status %d", name, res.failedShare(), exitStatus([]*result{res}))
		}
		var line struct {
			Correct bool `json:"correct"`
		}
		if err := json.Unmarshal([]byte(res.contractLine()), &line); err != nil || line.Correct != (c.failed == 0) {
			t.Errorf("%s: result line %s (%v)", name, res.contractLine(), err)
		}
	}
}

func TestBrokenStreamFailsWhatIsInFlight(t *testing.T) {
	wl := findWorkload("wire-rr")
	tp := sequentialTape(wl, opGet, 0, 8)
	client, server := net.Pipe()
	go func() {
		bufio.NewReader(server).ReadString('\n')
		server.Close() // early exit: no reply at all
	}()
	ld := newLoad(1, false)
	wc := &wireConn{wl: wl, c: client, tape: tp, window: 1, stats: ld.workers[0], buf: make([]byte, 4096), sentAt: make([]int64, 1)}
	if err := wc.run(ld, len(tp.ops)); err == nil {
		t.Fatal("a closed connection went unnoticed")
	}
	if a, f := ld.workers[0].ops.Load(), ld.workers[0].failed.Load(); a != 1 || f != 1 {
		t.Errorf("%d attempted, %d failed; want the one request in flight", a, f)
	}
}
