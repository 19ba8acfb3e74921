// Package cluster scales the server horizontally: a client-side router that
// hash-partitions a string keyspace across N independent ascyserve processes,
// the same decomposition the sharded facade applies inside one process taken
// one level up. The design goal is the ASCY thesis at cluster scale — no
// coordination on the data path: nodes never talk to each other, the server
// binary does not know clusters exist, and the only shared state is the
// client's routing function. Per-key operations touch exactly one node;
// multi-key gets split group-by-node and fan out; only flush_all and stats
// are deliberately broadcast.
//
// Routing is rendezvous (highest-random-weight) hashing over the same
// xorshift-multiply finalized FNV-1a hash the sharded facade routes with: for
// a key hash h, every node i scores mix(h ^ seed_i) and the highest score
// wins. Rendezvous rather than a ring: no token tables to build or rebalance,
// placement is a pure function of (key, node count), and growing N→N+1 moves
// exactly the keys the new node wins — an expected 1/(N+1) fraction — while
// every other key stays put. Node identity is the position in the address
// list, so a cluster restarted with the same ordered list routes identically
// across restarts.
package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ascylib "repro"
	"repro/internal/server"
)

// Router maps key hashes onto node indices by rendezvous hashing. A Router
// is immutable and safe for concurrent use.
type Router struct {
	seeds []uint64
}

// NewRouter builds a router over n nodes (n < 1 is treated as 1). Node i's
// score stream is seeded from its position, so the mapping is a pure,
// restart-stable function of (key, n).
func NewRouter(n int) *Router {
	if n < 1 {
		n = 1
	}
	r := &Router{seeds: make([]uint64, n)}
	x := uint64(0xA5C1_5E4D)
	for i := range r.seeds {
		r.seeds[i] = splitmix64(&x)
	}
	return r
}

// Nodes returns the node count.
func (r *Router) Nodes() int { return len(r.seeds) }

// splitmix64 is the standard seed sequencer (same as the xrand package's).
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NodeOf returns the node index key routes to.
func (r *Router) NodeOf(key string) int { return r.NodeOfHash(ascylib.HashString(key)) }

// NodeOfBytes is NodeOf for a []byte key (zero-alloc, same placement).
func (r *Router) NodeOfBytes(key []byte) int { return r.NodeOfHash(ascylib.HashBytes(key)) }

// NodeOfHash routes a raw key hash (ascylib.HashString/HashBytes): the
// xorshift-multiply finalizer the sharded facade scrambles FNV with — raw
// FNV's top bits are too weak to route on — then the highest-random-weight
// draw across the nodes. With one node it degenerates to 0 at no cost.
func (r *Router) NodeOfHash(h uint64) int {
	h ^= h >> 33
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	best, bestScore := 0, hrwScore(h, r.seeds[0])
	for i := 1; i < len(r.seeds); i++ {
		if s := hrwScore(h, r.seeds[i]); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// hrwScore mixes a finalized key hash with a node seed into that node's
// weight for the key. The mix must decorrelate nodes per key (the finalized
// hash alone orders every key the same way for every node); splitmix64's
// finalizer does, cheaply.
func hrwScore(h, seed uint64) uint64 {
	z := h ^ seed
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Route-ring tag bits. The low bits are the node index; the high bits carry
// per-entry routing facts the receive half replays:
//
//   - routeMore: the logical request continues in the next entry (a
//     multi-key get split across nodes pushes one entry per touched node;
//     all but the last carry the tag).
//   - routeDegMiss: the request degraded at send time under the miss-reads
//     policy — synthesize an empty (miss) response, touch no connection.
//   - routeDegErr: the request degraded at send time under fail-fast (or it
//     is a write, which always fails fast) — synthesize ErrNodeDown.
const (
	routeMore     = 1 << 31
	routeDegMiss  = 1 << 30
	routeDegErr   = 1 << 29
	routeDeg      = routeDegMiss | routeDegErr
	routeNodeMask = routeDegErr - 1
)

// routeRing is a FIFO of pending response routes: which node (and, for split
// gets, nodes) each queued request went to, so the receive half can replay
// the send half's routing decisions in order. Power-of-two ring, grow-on-full
// — steady state allocates nothing.
//
// The mutex covers the one sanctioned concurrency in the client: a pipelined
// caller may run the send half and the receive half on two goroutines, which
// makes the ring a single-producer single-consumer queue. Each request's
// push happens-before its own pop (the caller must sequence a request's send
// before its receive to mean anything), but the indices are shared between a
// later push and an earlier concurrent pop; an uncontended mutex is
// nanoseconds and allocation-free.
type routeRing struct {
	mu   sync.Mutex
	buf  []uint32
	head int
	n    int
}

func (r *routeRing) push(v uint32) {
	r.mu.Lock()
	if r.n == len(r.buf) {
		grown := make([]uint32, max(64, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
	r.mu.Unlock()
}

func (r *routeRing) pop() (uint32, bool) {
	r.mu.Lock()
	if r.n == 0 {
		r.mu.Unlock()
		return 0, false
	}
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	r.mu.Unlock()
	return v, true
}

// errNoRoute means a Recv* was called with no queued request to receive —
// the send and receive halves fell out of step.
var errNoRoute = errors.New("cluster: receive with no pending request")

// errNoKeys mirrors the single-node client's rejection of a keyless get.
var errNoKeys = errors.New("cluster: get requires at least one key")

// Client routes memcached-protocol requests across the nodes of a cluster,
// one pipelined server.Client connection per node. It mirrors the
// single-node client's surface — synchronous conveniences plus explicit
// Send*/Recv* pipelining halves — and keeps its contract: not safe for
// general concurrent use, open one per goroutine (the connection pool a
// concurrent caller wants is a pool of Clients). The one sanctioned split:
// ONE goroutine running the send half (Send*, Flush) while ONE other runs the
// receive half (Recv*), each request's send sequenced before its receive.
// The route ring is the only state both halves touch; it locks internally.
//
// The heart is batch-aware routing. Per-key requests route to one node and
// push that node onto a route FIFO; the receive half pops the FIFO and reads
// from the same node, so responses come back in request order without any
// cross-node coordination. A multi-key get is split group-by-node with a
// pooled counting-sort permutation — exactly the shape Store.GetBatch uses
// to group keys by shard — and one sub-get per touched node goes out; all
// touched nodes then serve their slices concurrently. The steady-state send
// and discard-receive paths allocate nothing, so the single-node client's
// zero-alloc discipline survives the hop to cluster mode.
type Client struct {
	router *Router
	addrs  []string
	opts   Options

	// nstates is the per-node failover machine: connection, health state,
	// and the pending/poisoned pipeline accounting (see failover.go).
	nstates []nodeState
	stop    chan struct{} // closed once, on Close/Abort: stops reconnectors
	stopped sync.Once

	// Degraded-mode accounting: responses synthesized as misses and as
	// errors, lifetime of the client.
	degMisses atomic.Uint64
	degErrors atomic.Uint64

	routes routeRing
	reqs   []uint64 // requests routed per node, lifetime of the client

	// scanLimits is the pending-mrange limit FIFO, aligned with the route
	// ring's scan broadcasts (see SendMRange/RecvMRange in scan.go); it
	// follows the ring's SPSC discipline and locks the same way.
	scanMu     sync.Mutex
	scanLimits []uint64

	// Pooled group-by-node scratch for multi-key gets (see SendGet): the
	// counting-sort workspace, per-key routes, the permutation, and the
	// gathered per-node key batch.
	counts []int32
	nodeOf []int32
	perm   []int32
	sub    []string
}

// Dial connects one pipelined connection to every node. The address list
// order is the cluster's identity: the same ordered list routes the same
// keys to the same nodes, across clients and across restarts.
func Dial(addrs ...string) (*Client, error) {
	return DialOptions(Options{}, addrs...)
}

// DialRetry is Dial with per-node bounded-backoff retry (server.DialRetry):
// the form launcher scripts and CI smokes want, where the cluster's
// processes are still booting when the client starts.
func DialRetry(timeout time.Duration, addrs ...string) (*Client, error) {
	return DialOptions(Options{DialTimeout: timeout}, addrs...)
}

// NodeReqs returns how many requests this client has routed to each node —
// the client-side view of load balance (a broadcast counts once per node).
func (c *Client) NodeReqs() []uint64 { return append([]uint64(nil), c.reqs...) }

// Router returns the routing function, shared and immutable.
func (c *Client) Router() *Router { return c.router }

// Close stops the reconnectors, sends quit to every live node, and closes
// the connections, returning the first error.
func (c *Client) Close() error {
	c.stopped.Do(func() { close(c.stop) })
	var first error
	for i := range c.nstates {
		ns := &c.nstates[i]
		ns.mu.Lock()
		nc := ns.conn
		ns.conn = nil
		ns.state = NodeDown
		ns.mu.Unlock()
		if nc == nil {
			continue
		}
		if err := nc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Flush pushes every live node's queued requests to the wire. Flushing a
// node with an empty buffer is a no-op, so this costs only the touched
// nodes anything. A node whose flush fails fails over (its in-flight
// pipeline is poisoned and will be synthesized); Flush itself reports
// nothing — degradation surfaces per request, on the receive side.
func (c *Client) Flush() error {
	for n := range c.nstates {
		ns := &c.nstates[n]
		ns.mu.Lock()
		nc := ns.conn
		if ns.state != NodeUp {
			nc = nil
		}
		ns.mu.Unlock()
		if nc == nil {
			continue
		}
		if err := nc.Flush(); err != nil {
			ns.mu.Lock()
			if ns.conn == nc && ns.state == NodeUp {
				failLocked(ns, nc)
			}
			ns.mu.Unlock()
		}
	}
	return nil
}

// --- pipelined send half ---

// SendGet1 queues a single-key get on the key's node: one route, one node
// write, one ring push, no allocation. A key owned by a non-up node (or
// whose node fails under the write) degrades per policy: the ring entry
// carries the degraded tag and the receive half synthesizes, so the pipeline
// never misaligns and the caller sees no send-side error.
func (c *Client) SendGet1(withCAS bool, key string) error {
	n := c.router.NodeOf(key)
	c.reqs[n]++
	if nc := c.sendEnter(n); nc != nil {
		err := nc.SendGet1(withCAS, key)
		if c.sendExit(n, nc, err) {
			c.routes.push(uint32(n))
			return nil
		}
	}
	c.routes.push(uint32(n) | c.degTagRead())
	return nil
}

// SendGet queues a get (or gets) for the given keys, split group-by-node:
// keys are routed, a counting-sort permutation groups them (request order
// preserved within each group — the property response reassembly relies on),
// and each touched node receives one sub-get for its group. The touched
// nodes all hold their slice after the next Flush, so they serve the batch
// concurrently. Zero allocations once the scratch has grown to the caller's
// batch size.
func (c *Client) SendGet(withCAS bool, keys ...string) error {
	switch len(keys) {
	case 0:
		return errNoKeys
	case 1:
		return c.SendGet1(withCAS, keys[0])
	}
	n := len(keys)
	if cap(c.nodeOf) < n {
		c.nodeOf = make([]int32, n)
		c.perm = make([]int32, n)
	}
	c.nodeOf = c.nodeOf[:n]
	c.perm = c.perm[:n]
	for i := range c.counts {
		c.counts[i] = 0
	}
	for i, k := range keys {
		nd := c.router.NodeOf(k)
		c.nodeOf[i] = int32(nd)
		c.counts[nd]++
	}
	// Counting sort: counts become group start offsets, then each key's
	// index is scattered into its node's slot range (identical in shape to
	// Store.GetBatch's group-by-shard).
	off := int32(0)
	for nd, cnt := range c.counts {
		c.counts[nd] = off
		off += cnt
	}
	for i := 0; i < n; i++ {
		nd := c.nodeOf[i]
		c.perm[c.counts[nd]] = int32(i)
		c.counts[nd]++
	}
	for j := 0; j < n; {
		nd := c.nodeOf[c.perm[j]]
		c.sub = c.sub[:0]
		for ; j < n && c.nodeOf[c.perm[j]] == nd; j++ {
			c.sub = append(c.sub, keys[c.perm[j]])
		}
		c.reqs[nd]++
		tag := uint32(nd)
		if j < n { // more groups follow for this logical request
			tag |= routeMore
		}
		queued := false
		if nc := c.sendEnter(int(nd)); nc != nil {
			err := nc.SendGet(withCAS, c.sub...)
			queued = c.sendExit(int(nd), nc, err)
		}
		if !queued {
			tag |= c.degTagRead()
		}
		c.routes.push(tag)
	}
	return nil
}

// SendStore queues a storage command on the key's node (verb as in the
// single-node client; casid only used for "cas"). Writes to a non-up node
// always fail fast — the receive half answers ErrNodeDown — never a
// silently dropped acknowledged write.
func (c *Client) SendStore(verb, key string, flags uint32, exptime int64, data []byte, casid uint64) error {
	n := c.router.NodeOf(key)
	c.reqs[n]++
	if nc := c.sendEnter(n); nc != nil {
		err := nc.SendStore(verb, key, flags, exptime, data, casid)
		if c.sendExit(n, nc, err) {
			c.routes.push(uint32(n))
			return nil
		}
	}
	c.routes.push(uint32(n) | routeDegErr)
	return nil
}

// SendDelete queues a delete on the key's node (fails fast when the node is
// not up, as all writes do).
func (c *Client) SendDelete(key string) error {
	n := c.router.NodeOf(key)
	c.reqs[n]++
	if nc := c.sendEnter(n); nc != nil {
		err := nc.SendDelete(key)
		if c.sendExit(n, nc, err) {
			c.routes.push(uint32(n))
			return nil
		}
	}
	c.routes.push(uint32(n) | routeDegErr)
	return nil
}

// SendIncrDecr queues an incr or decr on the key's node (fails fast when
// the node is not up, as all writes do).
func (c *Client) SendIncrDecr(key string, delta uint64, incr bool) error {
	n := c.router.NodeOf(key)
	c.reqs[n]++
	if nc := c.sendEnter(n); nc != nil {
		err := nc.SendIncrDecr(key, delta, incr)
		if c.sendExit(n, nc, err) {
			c.routes.push(uint32(n))
			return nil
		}
	}
	c.routes.push(uint32(n) | routeDegErr)
	return nil
}

// --- pipelined receive half ---

// degradeRead counts one synthesized read response and folds it into the
// running first-error per the policy: a miss-reads degrade is a clean miss
// (no error), a fail-fast degrade is ErrNodeDown.
func (c *Client) degradeRead(firstErr error) error {
	if c.opts.Policy == DegradedMissReads {
		c.degMisses.Add(1)
		return firstErr
	}
	c.degErrors.Add(1)
	if firstErr == nil {
		firstErr = ErrNodeDown
	}
	return firstErr
}

// RecvGetN consumes the response of one SendGet1/SendGet, discarding
// payloads and returning entry and byte counts — the allocation-free
// accounting receive. For a split get it sums the touched nodes'
// sub-responses; a degraded group (its node down at send time, or failed
// while the response was in flight) is synthesized per policy, and the
// remaining groups are still consumed so the pipeline stays aligned.
func (c *Client) RecvGetN() (entries int, dataBytes int64, err error) {
	var firstErr error
	for {
		tag, ok := c.routes.pop()
		if !ok {
			return entries, dataBytes, errNoRoute
		}
		switch {
		case tag&routeDegMiss != 0:
			c.degMisses.Add(1)
		case tag&routeDegErr != 0:
			c.degErrors.Add(1)
			if firstErr == nil {
				firstErr = ErrNodeDown
			}
		default:
			n := int(tag & routeNodeMask)
			nc, synth := c.recvEnter(n)
			if !synth {
				e, b, rerr := nc.RecvGetN()
				entries += e
				dataBytes += b
				var out error
				synth, out = c.recvExit(n, nc, rerr)
				if out != nil && firstErr == nil {
					firstErr = out
				}
			}
			if synth {
				firstErr = c.degradeRead(firstErr)
			}
		}
		if tag&routeMore == 0 {
			return entries, dataBytes, firstErr
		}
	}
}

// RecvGet consumes the response of one SendGet1/SendGet, materializing the
// entries. For a split get the entries come back grouped by node (each
// group in request order) — callers that need exact request order across
// nodes get it from ServeStream's reassembly, or key the results (GetMulti).
// Degraded groups synthesize per policy (see RecvGetN).
func (c *Client) RecvGet() ([]server.Entry, error) {
	var out []server.Entry
	var firstErr error
	for {
		tag, ok := c.routes.pop()
		if !ok {
			return out, errNoRoute
		}
		switch {
		case tag&routeDegMiss != 0:
			c.degMisses.Add(1)
		case tag&routeDegErr != 0:
			c.degErrors.Add(1)
			if firstErr == nil {
				firstErr = ErrNodeDown
			}
		default:
			n := int(tag & routeNodeMask)
			nc, synth := c.recvEnter(n)
			if !synth {
				es, rerr := nc.RecvGet()
				out = append(out, es...)
				var oerr error
				synth, oerr = c.recvExit(n, nc, rerr)
				if oerr != nil && firstErr == nil {
					firstErr = oerr
				}
			}
			if synth {
				firstErr = c.degradeRead(firstErr)
			}
		}
		if tag&routeMore == 0 {
			return out, firstErr
		}
	}
}

// RecvStored consumes one storage response (see server.Client.RecvStored).
// A degraded write answers (false, ErrNodeDown): the store was never
// acknowledged by any node.
func (c *Client) RecvStored() (bool, error) {
	tag, ok := c.routes.pop()
	if !ok {
		return false, errNoRoute
	}
	if tag&routeDeg == 0 {
		n := int(tag & routeNodeMask)
		nc, synth := c.recvEnter(n)
		if !synth {
			stored, rerr := nc.RecvStored()
			synth2, out := c.recvExit(n, nc, rerr)
			if !synth2 {
				return stored, out
			}
		}
	}
	c.degErrors.Add(1)
	return false, ErrNodeDown
}

// RecvDeleted consumes one delete response; degraded deletes answer
// (false, ErrNodeDown).
func (c *Client) RecvDeleted() (bool, error) {
	tag, ok := c.routes.pop()
	if !ok {
		return false, errNoRoute
	}
	if tag&routeDeg == 0 {
		n := int(tag & routeNodeMask)
		nc, synth := c.recvEnter(n)
		if !synth {
			deleted, rerr := nc.RecvDeleted()
			synth2, out := c.recvExit(n, nc, rerr)
			if !synth2 {
				return deleted, out
			}
		}
	}
	c.degErrors.Add(1)
	return false, ErrNodeDown
}

// RecvLine consumes one single-line response; degraded requests answer
// ("", ErrNodeDown).
func (c *Client) RecvLine() (string, error) {
	tag, ok := c.routes.pop()
	if !ok {
		return "", errNoRoute
	}
	if tag&routeDeg == 0 {
		n := int(tag & routeNodeMask)
		nc, synth := c.recvEnter(n)
		if !synth {
			line, rerr := nc.RecvLine()
			synth2, out := c.recvExit(n, nc, rerr)
			if !synth2 {
				return line, out
			}
		}
	}
	c.degErrors.Add(1)
	return "", ErrNodeDown
}

// --- synchronous conveniences ---

// Get retrieves one key from its node.
func (c *Client) Get(key string) (server.Entry, bool, error) {
	if err := c.SendGet1(false, key); err != nil {
		return server.Entry{}, false, err
	}
	if err := c.Flush(); err != nil {
		return server.Entry{}, false, err
	}
	es, err := c.RecvGet()
	if err != nil || len(es) == 0 {
		return server.Entry{}, false, err
	}
	return es[0], true, nil
}

// GetMulti retrieves several keys in one fan-out round trip: sub-gets to
// every touched node, served concurrently, results keyed.
func (c *Client) GetMulti(keys ...string) (map[string]server.Entry, error) {
	if err := c.SendGet(false, keys...); err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	es, err := c.RecvGet()
	if err != nil {
		return nil, err
	}
	out := make(map[string]server.Entry, len(es))
	for _, e := range es {
		out[e.Key] = e
	}
	return out, nil
}

// storeSync drives one storage verb through the pipelined halves.
func (c *Client) storeSync(verb, key string, flags uint32, exptime int64, data []byte, casid uint64) (bool, error) {
	if err := c.SendStore(verb, key, flags, exptime, data, casid); err != nil {
		return false, err
	}
	if err := c.Flush(); err != nil {
		return false, err
	}
	return c.RecvStored()
}

// Set stores unconditionally on the key's node.
func (c *Client) Set(key string, flags uint32, exptime int64, data []byte) error {
	ok, err := c.storeSync("set", key, flags, exptime, data, 0)
	if err == nil && !ok {
		return fmt.Errorf("cluster: set of %q not stored", key)
	}
	return err
}

// Add stores only if absent; reports whether it stored.
func (c *Client) Add(key string, flags uint32, exptime int64, data []byte) (bool, error) {
	return c.storeSync("add", key, flags, exptime, data, 0)
}

// Delete removes a key from its node.
func (c *Client) Delete(key string) (bool, error) {
	if err := c.SendDelete(key); err != nil {
		return false, err
	}
	if err := c.Flush(); err != nil {
		return false, err
	}
	return c.RecvDeleted()
}

// Incr adjusts the decimal value under key upward on its node.
func (c *Client) Incr(key string, delta uint64) (uint64, bool, error) {
	return c.incrDecr(key, delta, true)
}

// Decr adjusts the decimal value under key downward on its node.
func (c *Client) Decr(key string, delta uint64) (uint64, bool, error) {
	return c.incrDecr(key, delta, false)
}

func (c *Client) incrDecr(key string, delta uint64, incr bool) (uint64, bool, error) {
	if err := c.SendIncrDecr(key, delta, incr); err != nil {
		return 0, false, err
	}
	if err := c.Flush(); err != nil {
		return 0, false, err
	}
	line, err := c.RecvLine()
	if err != nil {
		return 0, false, err
	}
	if line == "NOT_FOUND" {
		return 0, false, nil
	}
	if line == "ERROR" || strings.HasPrefix(line, "CLIENT_ERROR") || strings.HasPrefix(line, "SERVER_ERROR") {
		return 0, false, &server.ServerError{Line: line}
	}
	v, perr := strconv.ParseUint(line, 10, 64)
	if perr != nil {
		return 0, false, fmt.Errorf("cluster: unexpected incr/decr response %q", line)
	}
	return v, true, nil
}

// FlushAll empties every live node's store — the one mutating broadcast in
// the protocol. The requests pipeline to all nodes before any response is
// read. Nodes currently down are skipped (their stores restart empty
// anyway); only protocol-level surprises from live nodes are errors.
func (c *Client) FlushAll() error {
	for n := range c.nstates {
		c.reqs[n]++
		queued := false
		if nc := c.sendEnter(n); nc != nil {
			err := nc.SendFlushAll(0)
			queued = c.sendExit(n, nc, err)
		}
		tag := uint32(n)
		if !queued {
			tag |= routeDegErr
		}
		c.routes.push(tag)
	}
	c.Flush()
	var firstErr error
	for range c.nstates {
		line, err := c.RecvLine()
		if err != nil {
			if firstErr == nil && !server.IsDegraded(err) {
				firstErr = err
			}
			continue
		}
		if line != "OK" && firstErr == nil {
			firstErr = fmt.Errorf("cluster: unexpected flush_all response %q", line)
		}
	}
	return firstErr
}

// NodeStats retrieves every live node's statistics, pipelined (one fan-out
// round trip), indexed like Addrs. A node that is down — or dies during the
// fan-out — contributes a nil map rather than failing the call, so stats
// stay observable through an outage (which is exactly when they matter).
func (c *Client) NodeStats() ([]map[string]string, error) {
	queued := make([]bool, len(c.nstates))
	for n := range c.nstates {
		nc := c.sendEnter(n)
		if nc == nil {
			continue
		}
		err := nc.SendStats()
		queued[n] = c.sendExit(n, nc, err)
	}
	c.Flush()
	out := make([]map[string]string, len(c.nstates))
	for n := range c.nstates {
		if !queued[n] {
			continue
		}
		nc, synth := c.recvEnter(n)
		if synth {
			continue
		}
		st, rerr := nc.RecvStats()
		synth, out2 := c.recvExit(n, nc, rerr)
		if synth {
			continue
		}
		if out2 != nil {
			return nil, fmt.Errorf("cluster: stats from node %d (%s): %w", n, c.addrs[n], out2)
		}
		out[n] = st
	}
	return out, nil
}

// Stats fans out to every node and aggregates: additive counters (command
// and hit/miss counts, byte counts, batch and value-pool counters, item and
// connection counts, shard totals) are summed, batch_depth_avg is recomputed
// from the summed counters, and identity fields (algo, version, …) are taken
// from node 0. Cluster-level fields are added on top: cluster_nodes, and
// node<i>_reqs — each node's served-command count, so uneven routing is
// visible in one place.
func (c *Client) Stats() (map[string]string, error) {
	per, err := c.NodeStats()
	if err != nil {
		return nil, err
	}
	return c.aggregateStats(per), nil
}

// aggregateStats folds per-node stats maps (indexed like Addrs; nil entries
// are nodes that were down) into the cluster view Stats documents. On top
// of the summed counters it reports the failover layer's own view: each
// node's health state and failover count, and the cluster totals including
// how many responses were synthesized under degraded mode.
func (c *Client) aggregateStats(per []map[string]string) map[string]string {
	base := -1
	for i, st := range per {
		if st != nil {
			base = i
			break
		}
	}
	agg := make(map[string]string, 64)
	if base >= 0 {
		for k, v := range per[base] {
			agg[k] = v
		}
		for _, st := range per[base+1:] {
			if st == nil {
				continue
			}
			for k, v := range st {
				if !statSummable(k) {
					continue
				}
				a, err1 := strconv.ParseUint(agg[k], 10, 64)
				b, err2 := strconv.ParseUint(v, 10, 64)
				if err1 == nil && err2 == nil {
					agg[k] = strconv.FormatUint(a+b, 10)
				}
			}
		}
	}
	// The summed batches/cmd_batched make the base node's quotient stale.
	if batches, err := strconv.ParseUint(agg["batches"], 10, 64); err == nil && batches > 0 {
		if batched, err := strconv.ParseUint(agg["cmd_batched"], 10, 64); err == nil {
			agg["batch_depth_avg"] = strconv.FormatFloat(float64(batched)/float64(batches), 'f', 2, 64)
		}
	}
	agg["cluster_nodes"] = strconv.Itoa(len(c.nstates))
	up := 0
	var failovers, reconnects uint64
	for i, st := range per {
		h := c.Health(i)
		if h.State == NodeUp {
			up++
		}
		failovers += h.Failovers
		reconnects += h.Reconnects
		pfx := "node" + strconv.Itoa(i)
		agg[pfx+"_state"] = h.State.String()
		agg[pfx+"_failovers"] = strconv.FormatUint(h.Failovers, 10)
		if st != nil {
			agg[pfx+"_reqs"] = strconv.FormatUint(reqsServed(st), 10)
		}
	}
	agg["cluster_nodes_up"] = strconv.Itoa(up)
	agg["cluster_failovers"] = strconv.FormatUint(failovers, 10)
	agg["cluster_reconnects"] = strconv.FormatUint(reconnects, 10)
	agg["cluster_degraded_misses"] = strconv.FormatUint(c.degMisses.Load(), 10)
	agg["cluster_degraded_errors"] = strconv.FormatUint(c.degErrors.Load(), 10)
	return agg
}

// reqsServed sums a node's served-command counters from its stats map: the
// per-node load figure reported as node<i>_reqs.
func reqsServed(st map[string]string) uint64 {
	var n uint64
	for _, k := range [...]string{"cmd_get", "cmd_set", "cmd_delete", "cmd_incr", "cmd_decr", "cmd_flush", "cmd_mrange", "cmd_mmin", "cmd_mmax"} {
		v, _ := strconv.ParseUint(st[k], 10, 64)
		n += v
	}
	return n
}

// statSummable reports whether a stats field aggregates across nodes by
// summation. batch_depth_avg is a quotient (recomputed after summing);
// uptime/time/version/algo and the like are identity fields (node 0 wins).
func statSummable(name string) bool {
	switch name {
	case "curr_connections", "total_connections", "curr_items",
		"batches", "cmd_batched", "protocol_errors", "shards", "threads",
		"handler_panics", "conns_shed":
		return true
	case "batch_depth_avg":
		return false
	}
	for _, p := range [...]string{"cmd_", "get_", "delete_", "incr_", "decr_",
		"cas_", "bytes_", "value_pool_", "batch_depth_", "range_"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
