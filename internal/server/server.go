package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Version is the server's protocol banner.
const Version = "ascylib-go/2.1"

// Config configures a Server.
type Config struct {
	// Addr is the listen address, e.g. ":11211" or "127.0.0.1:0".
	Addr string
	// Algo is the registry name of the backing structure.
	Algo string
	// Capacity sizes the backing structure (hash-table buckets, total
	// across shards); <= 0 picks the store default.
	Capacity int
	// Shards hash-partitions the keyspace across that many independent
	// structure instances, each with its own value-block pool and SSMEM
	// epochs (see Store) — the knob that lets the list and tree families
	// serve multi-core traffic instead of serializing on one structure.
	// <= 0 means 1 (a single instance).
	Shards int
	// Ordered keys the store with the order-preserving encoding (see
	// ascylib.NewOrderedShardedStringMap) and range-partitions shards,
	// lighting up the mrange/mmin/mmax commands: scans enumerate the
	// keyspace in true lexicographic order. Without it those commands
	// answer SERVER_ERROR — and hash placement stays uniform, which is why
	// it is opt-in: ordered placement is what makes scans cheap on the
	// sorted structures, and what clusters buckets on a hash table.
	Ordered bool
	// AcceptWorkers is the size of the sharded-accept pool: that many
	// goroutines block in Accept concurrently, so connection setup under
	// a connect storm spreads across cores instead of serializing on one
	// accept loop. <= 0 means GOMAXPROCS, capped at 8.
	AcceptWorkers int
	// MaxConns caps concurrently open connections. At the cap the accept
	// path sheds: the newcomer gets one "SERVER_ERROR busy" line and an
	// immediate close, so it learns the server is saturated instead of
	// hanging — the graceful half of overload, where the alternative is
	// unbounded goroutine growth until the process dies for everyone.
	// <= 0 means unlimited.
	MaxConns int
	// ChaosPanicKey arms the chaos harness's panic injector: a get of
	// exactly this key panics in the handler, exercising the per-connection
	// panic isolation (the panic is recovered, counted in handler_panics,
	// and closes only that connection — never the process). Empty disables
	// injection; production configs leave it empty.
	ChaosPanicKey string
	// ReusePort shards the listener itself: every accept worker gets its
	// own SO_REUSEPORT socket bound to the same address, so the kernel
	// hash-distributes incoming connections across per-worker accept
	// queues instead of all workers contending on one queue's lock. On
	// platforms without SO_REUSEPORT support this degrades gracefully to
	// the single shared listener (ReusePortActive reports which).
	ReusePort bool
	// MaxItemSize bounds value blocks; <= 0 means DefaultMaxItemSize.
	MaxItemSize int
	// MaxBatch bounds how many pipelined requests one batch executes under
	// a single store pin (see ReadBatchInto): a client that has queued n
	// requests in the read buffer hands the server a free batch, and the
	// per-request fixed costs — pin-frame pool traffic, per-shard epoch
	// brackets, the clock read, and the response flush — amortize across
	// it. <= 0 picks DefaultMaxBatch; 1 disables batching (the per-command
	// path, kept for differential testing and as the depth-1 baseline).
	MaxBatch int
	// ReadBufferSize / WriteBufferSize size the per-connection bufio
	// buffers; <= 0 picks 64 KiB reads (never below MaxCommandLine) and
	// 64 KiB writes.
	ReadBufferSize  int
	WriteBufferSize int
	// WriteTimeout bounds each TCP write; a connection that cannot accept
	// bytes for this long is closed. Bounded writes matter beyond hygiene:
	// a request's epoch pin spans its response staging, and an epoch that
	// never closes stalls value-block reclamation for the whole store, so
	// an unbounded write would let one dead-slow client grow server memory
	// without limit. 0 picks 30 seconds; negative disables the deadline.
	WriteTimeout time.Duration
	// IdleTimeout bounds how long a connection may sit with no bytes
	// arriving before the server reclaims it. Without it, an idle or
	// half-open client pins its goroutine (and its slot in the connection
	// table) forever — a slow leak under real traffic, where peers
	// disappear without a FIN all the time. The deadline is re-armed on
	// every read, so any traffic keeps a connection alive indefinitely;
	// a request already in progress is still subject to it (a client that
	// stalls mid-frame for the whole window is indistinguishable from a
	// dead one). 0 picks 5 minutes; negative disables the deadline.
	IdleTimeout time.Duration
	// SnapshotPath, when non-empty, enables the persistence layer (see
	// persist.go and internal/snapshot): the file is loaded on New (warm
	// restart — a corrupt or truncated file logs loudly and boots empty,
	// never crashes), the msnap verb snapshots to it on demand, Shutdown
	// writes a final snapshot after the drain, and SnapshotInterval adds
	// a background ticker. Writes are crash-safe (temp + fsync + atomic
	// rename): dying mid-write leaves the previous file intact.
	SnapshotPath string
	// SnapshotInterval is the background snapshot period; 0 disables the
	// ticker (msnap and the shutdown snapshot still work). Ignored
	// without SnapshotPath.
	SnapshotInterval time.Duration
	// Logf, when set, receives connection-level error logs.
	Logf func(format string, args ...any)

	// globalWireStats reverts the per-connection wire counters (see
	// wirestats.go) to one shared slot that every connection writes —
	// the pre-sharding behavior, where each request's bookkeeping bounced
	// cache lines between every core serving traffic. It exists only as
	// the reference side of the stats differential test; production paths
	// never set it.
	globalWireStats bool
}

func (c *Config) fill() {
	if c.Algo == "" {
		c.Algo = "ht-clht-lb"
	}
	if c.AcceptWorkers <= 0 {
		c.AcceptWorkers = runtime.GOMAXPROCS(0)
		if c.AcceptWorkers > 8 {
			c.AcceptWorkers = 8
		}
	}
	if c.MaxItemSize <= 0 {
		c.MaxItemSize = DefaultMaxItemSize
	}
	if c.ReadBufferSize < MaxCommandLine {
		c.ReadBufferSize = 64 << 10
	}
	if c.WriteBufferSize <= 0 {
		c.WriteBufferSize = 64 << 10
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
}

// batchHistBuckets is the number of power-of-two batch-depth histogram
// buckets: 1, 2–3, 4–7, …, 128–255, 256+.
const batchHistBuckets = 9

// respOrderedDisabled answers the ordered-keyspace commands on a server
// whose store was not built with Config.Ordered. It is recoverable — the
// connection keeps serving — and tells the operator exactly which knob is
// missing.
const respOrderedDisabled = "SERVER_ERROR ordered keyspace disabled (start with -ordered)"

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Server is a memcached-protocol TCP server over one Store.
type Server struct {
	cfg   Config
	store *Store
	ln    net.Listener
	// lns holds every bound listener: just ln normally, one per accept
	// worker when SO_REUSEPORT sharding engaged (see Config.ReusePort).
	lns   []net.Listener
	start time.Time

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// draining flips when Shutdown begins: accept loops stop taking new
	// connections and connReader stops re-arming idle deadlines, so every
	// handler finishes the requests already received and then exits at its
	// next blocking read.
	draining atomic.Bool

	// Connection accounting (accept-path only, so contention-free in the
	// request loop). The per-request wire counters live in per-connection
	// wireStats slots (see wirestats.go) and are aggregated on demand.
	totalConns atomic.Uint64
	currConns  atomic.Int64

	// Fault accounting: handler panics recovered (each closed exactly one
	// connection, never the process) and connections shed at the MaxConns
	// cap.
	panics atomic.Uint64
	shed   atomic.Uint64

	// Wire-counter slot registry: statsAll is append-only (every slot ever
	// leased, live or parked), statsFree the parked ones awaiting reuse.
	statsMu   sync.Mutex
	statsAll  []*wireStats
	statsFree []*wireStats

	// Persistence bookkeeping (see serversnap.go). snapMu single-flights
	// snapshot writes: the ticker, msnap, and the shutdown snapshot
	// serialize on it, so two writers can never race on the temp file.
	snapMu       sync.Mutex
	snapStop     chan struct{}
	snapStopOnce sync.Once
	snapLoopOnce sync.Once
	snapWG       sync.WaitGroup
	snapLastUnix atomic.Int64
	snapCount    atomic.Uint64
	snapItems    atomic.Uint64
	snapBytes    atomic.Uint64
	snapErrs     atomic.Uint64
	loadedItems  atomic.Uint64
	loadExpired  atomic.Uint64
	loadMicros   atomic.Int64

	// finalStats makes the post-mortem stats line single-shot whichever
	// path closes the server first.
	finalStats sync.Once
}

// New builds a server (not yet listening) for cfg.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	if a, ok := core.Get(cfg.Algo); !ok {
		return nil, fmt.Errorf("server: unknown algorithm %q", cfg.Algo)
	} else if !a.Safe {
		return nil, fmt.Errorf("server: algorithm %q is an unsynchronized async baseline; refusing to serve it", cfg.Algo)
	}
	st, err := NewStore(cfg.Algo, cfg.Capacity, true, cfg.Shards, cfg.Ordered)
	if err != nil {
		return nil, err
	}
	// Seed one counter slot: the shared slot in globalWireStats mode, the
	// first connection's otherwise.
	ws0 := &wireStats{}
	srv := &Server{
		cfg:       cfg,
		store:     st,
		conns:     map[net.Conn]struct{}{},
		statsAll:  []*wireStats{ws0},
		statsFree: []*wireStats{ws0},
		snapStop:  make(chan struct{}),
	}
	if cfg.SnapshotPath != "" {
		// Warm restart. Never fatal: a missing file is a cold boot, a
		// damaged one logs loudly and boots empty (the file itself is
		// left in place for the operator).
		srv.loadSnapshot()
	}
	return srv, nil
}

// Store returns the backing store (for in-process inspection and tests).
func (s *Server) Store() *Store { return s.store }

// ErrServerClosed reports that Listen (or Serve's implicit Listen) found the
// server already closed. Serve treats it as a clean shutdown: Close racing
// Serve's startup is an ordinary sequence, not an error.
var ErrServerClosed = errors.New("server: already closed")

// install publishes freshly bound listeners, unless Close already won the
// race — in which case the listeners are closed on the spot and the caller
// gets ErrServerClosed, so a Close that finished before Listen can never be
// trumped by a server that starts serving afterwards.
func (s *Server) install(lns []net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		for _, ln := range lns {
			ln.Close()
		}
		return ErrServerClosed
	}
	s.ln, s.lns = lns[0], lns
	s.start = time.Now()
	s.mu.Unlock()
	return nil
}

// Listen binds the configured address. After Listen returns, Addr reports
// the actual address (useful with port 0). With ReusePort set on a capable
// platform, one SO_REUSEPORT listener is bound per accept worker — the
// first on the configured address, the rest on the concrete address it
// resolved to (so ":0" sweeps work: every sibling binds the chosen port).
func (s *Server) Listen() error {
	if s.cfg.ReusePort && reusePortAvailable && s.cfg.AcceptWorkers > 1 {
		ln, err := listenReusePort(s.cfg.Addr)
		if err != nil {
			return err
		}
		lns := []net.Listener{ln}
		for i := 1; i < s.cfg.AcceptWorkers; i++ {
			sib, err := listenReusePort(ln.Addr().String())
			if err != nil {
				for _, l := range lns {
					l.Close()
				}
				return err
			}
			lns = append(lns, sib)
		}
		return s.install(lns)
	}
	if s.cfg.ReusePort && !reusePortAvailable {
		s.logf("server: SO_REUSEPORT unavailable on this platform; using one shared listener")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.install([]net.Listener{ln})
}

// ReusePortActive reports whether the accept path is running one
// SO_REUSEPORT listener per worker (false before Listen, or when the
// platform forced the shared-listener fallback).
func (s *Server) ReusePortActive() bool { return len(s.lns) > 1 }

// Addr returns the bound listen address; nil before Listen.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve runs the accept pool and blocks until Close. It returns nil on a
// clean shutdown.
func (s *Server) Serve() error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			if errors.Is(err, ErrServerClosed) {
				return nil // Close won the startup race; a clean shutdown
			}
			return err
		}
	}
	if s.cfg.SnapshotPath != "" && s.cfg.SnapshotInterval > 0 {
		s.snapLoopOnce.Do(func() {
			s.snapWG.Add(1)
			go s.snapshotLoop()
		})
	}
	var awg sync.WaitGroup
	for i := 0; i < s.cfg.AcceptWorkers; i++ {
		// With per-worker SO_REUSEPORT listeners each worker accepts on
		// its own socket; otherwise every worker shares the one listener.
		ln := s.lns[i%len(s.lns)]
		awg.Add(1)
		go func() {
			defer awg.Done()
			s.acceptLoop(ln)
		}()
	}
	awg.Wait()
	s.wg.Wait()
	return nil
}

// ListenAndServe is Listen followed by Serve. Like Serve, losing the
// startup race to a concurrent Close is a clean shutdown, not an error.
func (s *Server) ListenAndServe() error {
	if err := s.Listen(); err != nil {
		if errors.Is(err, ErrServerClosed) {
			return nil
		}
		return err
	}
	return s.Serve()
}

// Close stops accepting, closes every open connection, and waits for the
// connection handlers to drain. It is idempotent and safe to call from any
// goroutine, concurrently with Serve's startup included: whichever of
// Listen and Close runs second observes the other (see install), so a
// server closed before it ever bound stays closed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	lns := s.lns
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.stopSnapshotLoop()
	var err error
	for _, ln := range lns {
		if cerr := ln.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) && err == nil {
			err = cerr
		}
	}
	s.wg.Wait()
	s.emitFinalStats()
	return err
}

// Shutdown drains the server: it stops accepting, lets every connection
// finish the requests it has already received (a blocked read returns at
// once — an idle connection holds nothing in flight — while a handler mid-
// batch completes the batch and flushes its responses), and then closes.
// If ctx expires first, the remaining connections are closed hard. Either
// way Serve returns nil and the server ends fully stopped; Shutdown after
// Shutdown (or Close) is a no-op.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	lns := s.lns
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	// Wake every blocked read with an already-past deadline. Requests whose
	// bytes have arrived still execute — bufio serves them without touching
	// the socket — so the drain boundary is exactly "what the server had
	// received when Shutdown began". connReader sees draining and leaves
	// the past deadline in place rather than re-arming the idle timeout.
	past := time.Unix(1, 0)
	for _, c := range conns {
		c.SetReadDeadline(past)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Final snapshot, after the drain boundary: every request the server
	// accepted before Shutdown has executed, so the cut is the server's
	// last word — what a warm restart will serve. Failure is logged and
	// counted, never fatal to the shutdown.
	if s.cfg.SnapshotPath != "" {
		s.stopSnapshotLoop()
		if _, _, serr := s.TakeSnapshot(); serr != nil {
			s.logf("server: final snapshot: %v", serr)
		}
	}
	if cerr := s.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// acceptLoop is one worker of the sharded-accept pool, accepting on its
// assigned listener.
func (s *Server) acceptLoop(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			s.logf("server: accept: %v", err)
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if s.draining.Load() {
			c.Close()
			continue
		}
		if s.cfg.MaxConns > 0 && s.currConns.Load() >= int64(s.cfg.MaxConns) {
			// At the cap: tell the newcomer why and hang up, off the
			// accept loop's critical path (a peer that never reads must
			// not stall accepting for everyone else).
			s.shed.Add(1)
			go shedConn(c)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.totalConns.Add(1)
		s.currConns.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				s.currConns.Add(-1)
				c.Close()
			}()
			// Panic isolation: a panic in this connection's handler — a
			// store bug, a parser edge, an injected chaos fault — costs
			// exactly this connection. The deferred recover runs before
			// the cleanup defers above, so the connection is still
			// unregistered and closed, and the epoch pin (executeBatch's
			// own defer) has already been released during unwinding.
			defer func() {
				if r := recover(); r != nil {
					s.panics.Add(1)
					s.logf("server: %s: handler panic (connection closed, server continues): %v\n%s",
						c.RemoteAddr(), r, debug.Stack())
				}
			}()
			s.handleConn(c)
		}()
	}
}

// shedConn delivers the over-capacity refusal: one error line, bounded by a
// short write deadline, then a close.
func shedConn(c net.Conn) {
	c.SetWriteDeadline(time.Now().Add(time.Second))
	c.Write([]byte("SERVER_ERROR busy\r\n"))
	c.Close()
}

// handleConn runs the request loop of one connection. Pipelining: requests
// are read in batches — everything completely buffered behind the first
// (blocking) frame, up to MaxBatch — and each batch executes under one
// store pin, so the per-request fixed costs (pin-frame pool traffic,
// per-shard epoch brackets, the clock read) amortize across the burst. The
// response writer is flushed only when the read buffer has no complete
// further input, so a burst of n requests costs O(1) TCP writes. The loop
// owns one Batch (entries plus per-slot scratch) for its lifetime, so the
// steady-state request path (parse → store → respond) performs no heap
// allocation. A failed response write ends the connection after the batch
// that hit it: the peer is not reading, so nothing more is served.
func (s *Server) handleConn(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	ws := s.acquireWireStats()
	defer s.releaseWireStats(ws)
	r := newConnReader(c, s, ws)
	br := newReader(r, s.cfg.ReadBufferSize)
	cw := &connWriter{c: c, ws: ws, timeout: s.cfg.WriteTimeout}
	bw := newWriter(cw, s.cfg.WriteBufferSize)
	var b Batch
	for {
		if cw.err != nil {
			return
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		n, err := ReadBatchInto(br, s.cfg.MaxItemSize, s.cfg.MaxBatch, &b)
		if n > 0 && s.executeBatch(&b, bw, ws) {
			bw.Flush()
			return
		}
		if err != nil {
			// Transport error or EOF: flush whatever is pending and stop.
			bw.Flush()
			return
		}
	}
}

// executeBatch applies one parsed batch to the store under a single pin and
// reports whether the connection must close (quit or a fatal protocol
// error). The epoch pin spans the whole batch — including the staging of
// every response value into the write buffer — so a value block handed out
// by Get cannot be recycled before its bytes are copied out, and a batch of
// n commands costs one pin-frame round-trip and at most one epoch bracket
// per touched shard instead of n.
func (s *Server) executeBatch(b *Batch, w *respWriter, ws *wireStats) (closed bool) {
	n := len(b.Entries)
	ws.n[cBatches].Add(1)
	ws.n[cCmdBatched].Add(uint64(n))
	ws.batchHist[batchBucket(n)].Add(1)
	p := s.store.Pin()
	defer p.Unpin()
	for i := range b.Entries {
		e := &b.Entries[i]
		if e.Err != nil {
			ws.n[cProtoErrors].Add(1)
			if !e.Err.NoReply {
				w.line(e.Err.Resp)
			}
			if e.Err.Fatal {
				return true
			}
			continue
		}
		if e.Cmd.Op == OpQuit {
			return true
		}
		s.execute(p, &e.Cmd, w, ws)
	}
	return false
}

// batchBucket maps a batch depth onto its histogram bucket: bucket i covers
// [2^i, 2^(i+1)), with the last bucket open-ended.
func batchBucket(n int) int {
	b := 0
	for n > 1 && b < batchHistBuckets-1 {
		n >>= 1
		b++
	}
	return b
}

// execute applies one command to the store under the batch's pin, counts it
// into the connection's wireStats slot, and writes its response.
func (s *Server) execute(p Pin, cmd *Command, w *respWriter, ws *wireStats) {
	switch cmd.Op {
	case OpGet, OpGets:
		ws.n[cCmdGet].Add(1)
		if s.cfg.ChaosPanicKey != "" {
			for _, k := range cmd.Keys {
				if string(k) == s.cfg.ChaosPanicKey {
					panic("chaos: injected handler panic on key " + string(k))
				}
			}
		}
		withCAS := cmd.Op == OpGets
		if len(cmd.Keys) > 1 {
			// Multi-get: route, group by shard, and walk shard-grouped
			// under the already-open pin; responses come back in request
			// order (see Store.GetBatch).
			s.store.GetBatch(p, cmd.Keys, func(i int, it Item, ok bool) {
				if !ok {
					ws.n[cGetMisses].Add(1)
					return
				}
				ws.n[cGetHits].Add(1)
				w.value(cmd.Keys[i], it, withCAS)
			})
		} else {
			for _, k := range cmd.Keys {
				it, ok := s.store.Get(p, k)
				if !ok {
					ws.n[cGetMisses].Add(1)
					continue
				}
				ws.n[cGetHits].Add(1)
				w.value(k, it, withCAS)
			}
		}
		w.line("END")

	case OpSet:
		ws.n[cCmdSet].Add(1)
		s.store.Set(p, cmd.Key, cmd.Flags, cmd.Exptime, cmd.Data)
		w.reply(cmd, "STORED")

	case OpAdd:
		ws.n[cCmdSet].Add(1)
		if s.store.Add(p, cmd.Key, cmd.Flags, cmd.Exptime, cmd.Data) {
			w.reply(cmd, "STORED")
		} else {
			w.reply(cmd, "NOT_STORED")
		}

	case OpReplace:
		ws.n[cCmdSet].Add(1)
		if s.store.Replace(p, cmd.Key, cmd.Flags, cmd.Exptime, cmd.Data) {
			w.reply(cmd, "STORED")
		} else {
			w.reply(cmd, "NOT_STORED")
		}

	case OpCas:
		ws.n[cCmdSet].Add(1)
		switch s.store.CompareAndSwap(p, cmd.Key, cmd.Flags, cmd.Exptime, cmd.Data, cmd.CasID) {
		case CasStored:
			ws.n[cCasHits].Add(1)
			w.reply(cmd, "STORED")
		case CasExists:
			ws.n[cCasBadval].Add(1)
			w.reply(cmd, "EXISTS")
		default:
			ws.n[cCasMisses].Add(1)
			w.reply(cmd, "NOT_FOUND")
		}

	case OpDelete:
		ws.n[cCmdDelete].Add(1)
		if s.store.Delete(p, cmd.Key) {
			ws.n[cDeleteHits].Add(1)
			w.reply(cmd, "DELETED")
		} else {
			ws.n[cDeleteMisses].Add(1)
			w.reply(cmd, "NOT_FOUND")
		}

	case OpIncr, OpDecr:
		incr := cmd.Op == OpIncr
		cmds, hits, misses := &ws.n[cCmdIncr], &ws.n[cIncrHits], &ws.n[cIncrMisses]
		if !incr {
			cmds, hits, misses = &ws.n[cCmdDecr], &ws.n[cDecrHits], &ws.n[cDecrMisses]
		}
		cmds.Add(1)
		nv, status := s.store.IncrDecr(p, cmd.Key, cmd.Delta, incr)
		switch status {
		case IncrOK:
			hits.Add(1)
			w.replyUint(cmd, nv)
		case IncrNotFound:
			misses.Add(1)
			w.reply(cmd, "NOT_FOUND")
		default:
			// The key was found (that is what made the value inspectable),
			// so the outcome is a hit — as memcached counts it. Every
			// incr/decr lands in exactly one of hit or miss.
			hits.Add(1)
			w.reply(cmd, "CLIENT_ERROR cannot increment or decrement non-numeric value")
		}

	case OpMRange:
		ws.n[cCmdMRange].Add(1)
		if !s.store.Ordered() {
			w.line(respOrderedDisabled)
			return
		}
		// The parser guarantees a positive limit; the server clamps it so a
		// scan can never stage more than MaxRangeKeys stanzas. An inverted
		// range (lo > hi) walks no shards and answers a bare END. The emit
		// path is valueStr over the store's own key strings — nothing is
		// allocated per returned entry.
		limit := int(cmd.Delta)
		if limit > MaxRangeKeys {
			limit = MaxRangeKeys
		}
		n := s.store.RangeScan(p, cmd.Keys[0], cmd.Keys[1], limit, func(k string, it Item) bool {
			w.valueStr(k, it, false)
			return true
		})
		ws.n[cRangeKeys].Add(uint64(n))
		w.line("END")

	case OpMMin, OpMMax:
		cnt := &ws.n[cCmdMMin]
		if cmd.Op == OpMMax {
			cnt = &ws.n[cCmdMMax]
		}
		cnt.Add(1)
		if !s.store.Ordered() {
			w.line(respOrderedDisabled)
			return
		}
		var (
			k  string
			it Item
			ok bool
		)
		if cmd.Op == OpMMin {
			k, it, ok = s.store.MinItem(p)
		} else {
			k, it, ok = s.store.MaxItem(p)
		}
		if ok {
			w.valueStr(k, it, false)
		}
		w.line("END")

	case OpMSnap:
		ws.n[cCmdMSnap].Add(1)
		if s.cfg.SnapshotPath == "" {
			w.line(respSnapshotDisabled)
			return
		}
		// Synchronous by design: OK on the wire means the snapshot file
		// is durable on disk — the client can SIGKILL the server the
		// moment it reads the reply (the CI smoke job does exactly
		// that). The write runs under snapMu, not the store: every
		// other connection keeps serving while the cut is taken.
		if _, _, err := s.TakeSnapshot(); err != nil {
			s.logf("server: msnap: %v", err)
			w.line("SERVER_ERROR snapshot failed")
			return
		}
		w.line("OK")

	case OpStats:
		for _, kv := range s.Stats() {
			w.line("STAT " + kv[0] + " " + kv[1])
		}
		w.line("END")

	case OpVersion:
		w.line("VERSION " + Version)

	case OpFlushAll:
		// The parser rejects negative delays; this guard keeps the store's
		// flush epoch in the future even if a new command path (or an
		// in-process caller) hands one through — a past epoch with a fresh
		// CAS watermark would silently kill every current item.
		if cmd.Exptime < 0 {
			w.reply(cmd, "CLIENT_ERROR invalid flush_all delay")
			return
		}
		ws.n[cCmdFlush].Add(1)
		s.store.FlushAll(p, cmd.Exptime)
		w.reply(cmd, "OK")
	}
}

// Stats returns the server statistics as ordered (name, value) pairs — the
// classic memcached counters plus "algo", so clients (and the load
// generator's BENCH output) can see which structure is serving.
func (s *Server) Stats() [][2]string {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	t := s.wireTotals()
	pairs := [][2]string{
		{"uptime", strconv.FormatInt(int64(time.Since(s.start)/time.Second), 10)},
		{"time", strconv.FormatInt(time.Now().Unix(), 10)},
		{"version", Version},
		{"pointer_size", "64"},
		{"algo", s.store.Algo()},
		{"shards", strconv.Itoa(s.store.Shards())},
		{"ordered", yesNo(s.store.Ordered())},
		{"threads", strconv.Itoa(s.cfg.AcceptWorkers)},
		{"curr_connections", strconv.FormatInt(s.currConns.Load(), 10)},
		{"total_connections", u(s.totalConns.Load())},
	}
	for c := wireCounter(0); c < cBatches; c++ {
		pairs = append(pairs, [2]string{wireCounterNames[c], u(t.n[c])})
	}
	pairs = append(pairs,
		[2]string{"handler_panics", u(s.panics.Load())},
		[2]string{"conns_shed", u(s.shed.Load())},
		[2]string{"curr_items", strconv.Itoa(s.store.Items())},
	)
	// Batch accounting: how well the pipelined bursts amortize. The depth
	// histogram buckets are powers of two; batch_depth_avg is the achieved
	// server-side batch depth (1.0 means no amortization — every command
	// paid its own pin, epochs, and clock read).
	batches, batched := t.n[cBatches], t.n[cCmdBatched]
	avg := 0.0
	if batches > 0 {
		avg = float64(batched) / float64(batches)
	}
	pairs = append(pairs,
		[2]string{wireCounterNames[cBatches], u(batches)},
		[2]string{wireCounterNames[cCmdBatched], u(batched)},
		[2]string{"batch_depth_avg", strconv.FormatFloat(avg, 'f', 2, 64)},
	)
	for i := range t.batchHist {
		lo := 1 << i
		name := fmt.Sprintf("batch_depth_%d_%d", lo, 2*lo-1)
		if i == 0 {
			name = "batch_depth_1"
		} else if i == batchHistBuckets-1 {
			name = fmt.Sprintf("batch_depth_%d_plus", lo)
		}
		pairs = append(pairs, [2]string{name, u(t.batchHist[i])})
	}
	// Value-block pool counters (ASCY4 on the serving path): the server
	// always recycles value blocks through per-shard SSMEM pools.
	bs := s.store.BufStats()
	pairs = append(pairs,
		[2]string{"value_pool_allocs", u(bs.Allocs)},
		[2]string{"value_pool_reused", u(bs.Reused)},
	)
	// Persistence counters (zero without Config.SnapshotPath):
	// snapshot_last_unix/_items/_bytes describe the last successful
	// snapshot, loaded_items/snapshot_load_ms the warm boot (loaded_items
	// counts only items actually inserted — records already expired at
	// load time are in neither).
	pairs = append(pairs,
		[2]string{"snapshots_taken", u(s.snapCount.Load())},
		[2]string{"snapshot_last_unix", strconv.FormatInt(s.snapLastUnix.Load(), 10)},
		[2]string{"snapshot_items", u(s.snapItems.Load())},
		[2]string{"snapshot_bytes", u(s.snapBytes.Load())},
		[2]string{"snapshot_errors", u(s.snapErrs.Load())},
		[2]string{"loaded_items", u(s.loadedItems.Load())},
		[2]string{"load_expired_skipped", u(s.loadExpired.Load())},
		[2]string{"snapshot_load_ms", strconv.FormatFloat(float64(s.loadMicros.Load())/1000, 'f', 3, 64)},
	)
	return pairs
}

// StatsMap returns Stats as a map.
func (s *Server) StatsMap() map[string]string {
	m := map[string]string{}
	for _, kv := range s.Stats() {
		m[kv[0]] = kv[1]
	}
	return m
}

// connReader counts bytes into the server's stats and enforces the idle
// timeout: the read deadline is re-armed before every Read, so a silent or
// half-open client times out and is reclaimed while any live traffic keeps
// the connection open.
type connReader struct {
	c       net.Conn
	ws      *wireStats
	srv     *Server
	timeout time.Duration
}

func newConnReader(c net.Conn, s *Server, ws *wireStats) *connReader {
	return &connReader{c: c, ws: ws, srv: s, timeout: s.cfg.IdleTimeout}
}

func (r *connReader) Read(p []byte) (int, error) {
	if r.srv.draining.Load() {
		// Shutdown set a past deadline to drain this connection; re-arming
		// the idle timeout here would undo it and hold the drain open.
	} else if r.timeout > 0 {
		r.c.SetReadDeadline(time.Now().Add(r.timeout))
	}
	n, err := r.c.Read(p)
	if n > 0 {
		r.ws.n[cBytesRead].Add(uint64(n))
	}
	return n, err
}

// connWriter counts bytes out, enforces the per-write deadline, and keeps
// the first write error for the connection loop.
type connWriter struct {
	c       net.Conn
	ws      *wireStats
	timeout time.Duration
	err     error
}

func (w *connWriter) Write(p []byte) (int, error) {
	if w.timeout > 0 {
		w.c.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	n, err := w.c.Write(p)
	if n > 0 {
		w.ws.n[cBytesWritten].Add(uint64(n))
	}
	if err != nil && w.err == nil {
		w.err = err
	}
	return n, err
}
