package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one ascyserve subprocess on a loopback ephemeral port.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	done   chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after done
}

// startServer boots bin with args in dir and waits for it to publish its
// address. The process dies with ctx.
func startServer(ctx context.Context, bin, dir string, args []string) (*serverProc, error) {
	addrFile := filepath.Join(dir, "addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	p := &serverProc{done: make(chan struct{})}
	args = append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrFile, "-quiet"}, args...)
	p.cmd = exec.CommandContext(ctx, bin, args...)
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	deadline := time.After(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			p.addr = string(b)
			return p, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("server exited during start-up: %v\n%s", p.err, p.stderr.String())
		case <-deadline:
			p.kill()
			return nil, fmt.Errorf("server published no address within 20s\n%s", p.stderr.String())
		case <-time.After(200 * time.Microsecond): // set-ups are as short as 10 ms
		}
	}
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// exited reports whether the process has already ended.
func (p *serverProc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill ends the process at once and waits for it.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// terminate asks for a graceful shutdown (SIGTERM: drain, final snapshot)
// and waits for the exit; a server that ignores it for 30 s is killed.
func (p *serverProc) terminate() error {
	if p.exited() {
		return fmt.Errorf("server had already exited: %v\n%s", p.err, p.stderr.String())
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		p.kill()
		return errors.New("server ignored SIGTERM for 30s")
	}
	if p.err != nil {
		return fmt.Errorf("server shutdown: %v\n%s", p.err, p.stderr.String())
	}
	return nil
}

// wireConn drives one connection closed-loop: it keeps up to window
// requests of its tape outstanding, sending as many new ones as replies
// have just arrived, from a single goroutine.
type wireConn struct {
	wl     *workload
	c      net.Conn
	tape   *tape
	window int
	stats  *workerStats
	buf    []byte // unparsed reply bytes are buf[r:w]
	r, w   int
	sentAt []int64 // send time of each outstanding request, by sequence % window
}

func dialWire(wl *workload, addr string, t *tape, window int, stats *workerStats) (*wireConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.(*net.TCPConn).SetNoDelay(true)
	return &wireConn{
		wl: wl, c: c, tape: t, window: window, stats: stats,
		buf:    make([]byte, 256<<10),
		sentAt: make([]int64, window),
	}, nil
}

// errBroken ends a connection whose reply stream can no longer be framed.
var errBroken = errors.New("reply stream cannot be framed")

// run sends the tape (looping over it) until ld says stop, or — when total
// is positive — until exactly total requests have been answered. Requests
// still in flight when it ends by error are counted as failed.
func (wc *wireConn) run(ld *load, total int) error {
	n := len(wc.tape.ops)
	sent, done := 0, 0
	stopping := false
	for {
		phase := ld.phase.Load()
		if phase == phaseStop && total <= 0 {
			stopping = true // drain what is in flight, send nothing new
		}
		room := wc.window - (sent - done)
		if total > 0 {
			room = min(room, total-sent)
		}
		if room > 0 && !stopping {
			now := nanotime()
			for room > 0 {
				i := sent % n
				k := min(room, n-i)
				if _, err := wc.c.Write(wc.tape.span(i, i+k)); err != nil {
					return wc.abort(sent-done, err)
				}
				for j := 0; j < k; j++ {
					wc.sentAt[(sent+j)%wc.window] = now
				}
				sent += k
				room -= k
			}
		}
		if done == sent {
			return nil // drained (stopping) or completed (total)
		}
		if wc.w == len(wc.buf) {
			return wc.abort(sent-done, errBroken) // a reply larger than the buffer
		}
		m, err := wc.c.Read(wc.buf[wc.w:])
		if err != nil {
			return wc.abort(sent-done, err)
		}
		wc.w += m
		now := nanotime()
		var keys uint64
		first := done
		for done < sent {
			o := wc.tape.ops[done%n]
			rn, ok, hits := checkReply(wc.wl, o, wc.buf[wc.r:wc.w])
			if rn == 0 {
				break
			}
			if rn < 0 {
				return wc.abort(sent-done, errBroken)
			}
			if !ok {
				req, reply := wc.tape.span(done%n, done%n+1), wc.buf[wc.r:wc.r+rn]
				wc.stats.fail(func() string {
					return fmt.Sprintf("request %d %q answered %q", done, req[:min(len(req), 64)], reply[:min(len(reply), 64)])
				})
			}
			wc.r += rn
			if o.kind == opScan {
				keys += uint64(hits)
			}
			if done%wireSampleEvery == 0 {
				wc.stats.sample(phase, ld.traced, wc.sentAt[done%wc.window], now)
			}
			done++
		}
		if wc.r == wc.w {
			wc.r, wc.w = 0, 0
		} else if wc.r > len(wc.buf)/2 {
			wc.w = copy(wc.buf, wc.buf[wc.r:wc.w])
			wc.r = 0
		}
		wc.stats.ops.Add(uint64(done - first))
		wc.stats.scanKeys.Add(keys)
	}
}

// abort accounts the requests left unanswered as attempted and failed.
func (wc *wireConn) abort(inflight int, err error) error {
	wc.stats.ops.Add(uint64(inflight))
	wc.stats.failed.Add(uint64(inflight))
	return err
}

// runTape answers every request of t once over a fresh connection: the
// preload and the read-back. It returns how many were attempted and failed.
func runTape(wl *workload, addr string, t *tape) (attempted, failed uint64, err error) {
	ld := newLoad(1, false)
	wc, err := dialWire(wl, addr, t, 64, ld.workers[0])
	if err != nil {
		return 0, 0, err
	}
	defer wc.c.Close()
	err = wc.run(ld, len(t.ops))
	return ld.workers[0].ops.Load(), ld.workers[0].failed.Load(), err
}

// runTapes runs several tapes at once, each over its own connection.
func runTapes(wl *workload, addr string, tapes []*tape) (attempted, failed uint64, err error) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, t := range tapes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, f, e := runTape(wl, addr, t)
			mu.Lock()
			defer mu.Unlock()
			attempted, failed = attempted+a, failed+f
			if e != nil && err == nil {
				err = e
			}
		}()
	}
	wg.Wait()
	return attempted, failed, err
}

// control sends one command line on a fresh connection and returns the
// reply lines up to and including terminal (or the first line when terminal
// is empty).
func control(addr, command, terminal string) ([]string, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(60 * time.Second))
	if _, err := io.WriteString(c, command+"\r\n"); err != nil {
		return nil, err
	}
	var (
		lines []string
		buf   []byte
		chunk = make([]byte, 16<<10)
	)
	for {
		n, err := c.Read(chunk)
		buf = append(buf, chunk[:n]...)
		for {
			line, rest, ok := bytes.Cut(buf, []byte("\r\n"))
			if !ok {
				break
			}
			buf = rest
			lines = append(lines, string(line))
			if terminal == "" || string(line) == terminal {
				return lines, nil
			}
		}
		if err != nil {
			return lines, fmt.Errorf("%s: %w", command, err)
		}
	}
}

// serverStats reads the stats verb into a name → number map (non-numeric
// values are skipped).
func serverStats(addr string) (map[string]float64, error) {
	lines, err := control(addr, "stats", "END")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 3 && f[0] == "STAT" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				m[f[1]] = v
			}
		}
	}
	return m, nil
}
