package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/server"
)

// NodeState is one node's health as the client sees it.
//
// The lifecycle: a node is NodeUp while its connection serves; the first
// transport error fails it over to NodeSuspect (conn torn down, circuit
// opened, reconnector kicked); after Options.DownAfter consecutive failed
// reconnect rounds the suspicion is confirmed as NodeDown. A verified
// reconnect returns the node to NodeUp from either state. The routing
// circuit is open for both NodeSuspect and NodeDown — a node without a live
// connection cannot be routed to regardless of how sure the client is that
// it is gone — so the distinction is observability: suspect is "just
// failed, reconnect still in its first rounds", down is "confirmed gone".
type NodeState int32

const (
	NodeUp NodeState = iota
	NodeSuspect
	NodeDown
)

func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeSuspect:
		return "suspect"
	case NodeDown:
		return "down"
	}
	return "invalid"
}

// DegradedPolicy decides what a request owned by a non-up node gets back
// while the circuit is open. Writes always fail fast regardless of policy —
// acknowledging a write that reached no node would be a silent data loss —
// so the policy only varies reads.
type DegradedPolicy int

const (
	// DegradedFailFast answers every request for a down node's keys with an
	// error ("SERVER_ERROR node down" over the wire, ErrNodeDown in-process)
	// — the caller learns immediately and decides for itself.
	DegradedFailFast DegradedPolicy = iota
	// DegradedMissReads treats reads of a down node's keys as misses —
	// exactly what a cache contract promises anyway — while writes still
	// fail fast. The cache keeps absorbing read traffic through the outage.
	DegradedMissReads
)

// ErrNodeDown is the degraded-mode error: the request was owned by a node
// whose circuit is open (or that failed while the request was in flight),
// and the response was synthesized locally. It implements
// server.DegradedError, so server.IsDegraded(err) is true — the pipeline is
// still aligned and the caller may simply continue.
var ErrNodeDown error = nodeDownError{}

type nodeDownError struct{}

func (nodeDownError) Error() string  { return "cluster: SERVER_ERROR node down" }
func (nodeDownError) Degraded() bool { return true }

// degradedLine is the wire form of ErrNodeDown (what ServeStream emits for
// a failed-fast request).
const degradedLine = "SERVER_ERROR node down"

// Options tunes the failover behavior of a cluster client.
type Options struct {
	// DialTimeout bounds the initial per-node connect retry window
	// (server.DialRetry's backoff); <= 0 makes one attempt per node.
	DialTimeout time.Duration
	// Policy selects the degraded mode (see DegradedPolicy); the zero value
	// is DegradedFailFast.
	Policy DegradedPolicy
	// DownAfter is how many consecutive failed reconnect rounds confirm a
	// suspect node as down; <= 0 means 2.
	DownAfter int
	// ReconnectWindow bounds each reconnect round (one verified-dial backoff
	// window, see server.DialRetryVerified); <= 0 means 250ms.
	ReconnectWindow time.Duration
	// AllowInitialDown makes Dial tolerate unreachable nodes at boot: they
	// start in NodeDown with the reconnector already chasing them, instead
	// of failing the whole Dial. The default (false) fails fast and closes
	// the connections already made.
	AllowInitialDown bool
	// NodeDialer overrides how node connections are (re)established — the
	// chaos harness's seam, wrapping conns in faultnet. nil uses
	// server.DialRetry for the initial dial and server.DialRetryVerified
	// (dial + version probe per attempt) for reconnects.
	NodeDialer func(addr string, timeout time.Duration) (*server.Client, error)
}

func (o *Options) fill() {
	if o.DownAfter <= 0 {
		o.DownAfter = 2
	}
	if o.ReconnectWindow <= 0 {
		o.ReconnectWindow = 250 * time.Millisecond
	}
}

func (o *Options) dialInitial(addr string) (*server.Client, error) {
	if o.NodeDialer != nil {
		return o.NodeDialer(addr, o.DialTimeout)
	}
	return server.DialRetry(addr, o.DialTimeout)
}

func (o *Options) dialReconnect(addr string) (*server.Client, error) {
	if o.NodeDialer != nil {
		return o.NodeDialer(addr, o.ReconnectWindow)
	}
	return server.DialRetryVerified(addr, o.ReconnectWindow)
}

// NodeHealth is one node's health snapshot.
type NodeHealth struct {
	State      NodeState
	Failovers  uint64 // up→suspect transitions (one per lost connection)
	Reconnects uint64 // successful verified reconnects
}

// nodeState is one node's failover machine. The mutex guards every field;
// the hot paths take it twice per request (once around the conn snapshot,
// once to settle), which an uncontended mutex serves in nanoseconds and
// zero allocations — the routed get path's 0 allocs/op gate still holds.
//
// pending counts requests on the current connection's wire whose responses
// have not been received. When the connection fails, pending becomes
// poisoned: that many responses will never arrive, and — critically — must
// never be read from a reconnected connection, which only carries responses
// for requests sent after recovery. The receive path consumes poisoned
// entries synthetically before it touches the connection, and the route
// ring's FIFO order guarantees the poisoned requests pop before any
// post-recovery request pushed behind them, so the pipeline realigns
// exactly.
type nodeState struct {
	mu         sync.Mutex
	conn       *server.Client
	state      NodeState
	pending    int64
	poisoned   int64
	failovers  uint64
	reconnects uint64
	kick       chan struct{} // wakes the node's reconnector (capacity 1)
}

// failLocked fails node state ns over: tear the connection down, open the
// circuit, poison the in-flight pipeline, and kick the reconnector. Caller
// holds ns.mu with ns.conn == nc and ns.state == NodeUp.
func failLocked(ns *nodeState, nc *server.Client) {
	nc.Abort()
	ns.conn = nil
	ns.state = NodeSuspect
	ns.poisoned += ns.pending
	ns.pending = 0
	ns.failovers++
	select {
	case ns.kick <- struct{}{}:
	default:
	}
}

// sendEnter snapshots node n's connection for a queueing write; nil means
// the circuit is open and the request must degrade without touching the
// wire.
func (c *Client) sendEnter(n int) *server.Client {
	ns := &c.nstates[n]
	ns.mu.Lock()
	nc := ns.conn
	if ns.state != NodeUp {
		nc = nil
	}
	ns.mu.Unlock()
	return nc
}

// sendExit settles a queueing write made on nc: true means the request is
// owed a response (pending++). false means it must be synthesized — either
// the write failed (this call performs the failover), or the node failed
// over underneath the write, in which case the bytes went to the torn-down
// connection and die with it.
func (c *Client) sendExit(n int, nc *server.Client, err error) bool {
	ns := &c.nstates[n]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.conn != nc || ns.state != NodeUp {
		return false
	}
	if err != nil {
		failLocked(ns, nc)
		return false
	}
	ns.pending++
	return true
}

// recvEnter begins one response receive on node n. synth reports that the
// response must be synthesized without touching any connection: the request
// was poisoned by a failover, so its response will never arrive — and must
// not be read from a reconnected connection (see nodeState).
func (c *Client) recvEnter(n int) (nc *server.Client, synth bool) {
	ns := &c.nstates[n]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.poisoned > 0 {
		ns.poisoned--
		return nil, true
	}
	if ns.state != NodeUp || ns.conn == nil {
		return nil, true
	}
	return ns.conn, false
}

// recvExit settles one receive performed on nc. A protocol error line
// (*server.ServerError) leaves the stream aligned and the node healthy, so
// it passes through as err. Any other error is transport: the node fails
// over (if this receive is the first to notice), the in-flight slot that
// died with it — this request's — is consumed from the poison count, and
// the caller synthesizes. A success settled after a concurrent failover
// consumes its poisoned slot too, keeping the count exact: the response was
// received, so it is not among the ones that will never arrive.
func (c *Client) recvExit(n int, nc *server.Client, err error) (synth bool, out error) {
	ns := &c.nstates[n]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if err == nil {
		if ns.conn == nc {
			ns.pending--
		} else if ns.poisoned > 0 {
			ns.poisoned--
		}
		return false, nil
	}
	// se lives on the error path only: taking its address for errors.As
	// heap-allocates it, which the zero-alloc gate on the success path
	// forbids.
	var se *server.ServerError
	if errors.As(err, &se) {
		if ns.conn == nc {
			ns.pending--
		} else if ns.poisoned > 0 {
			ns.poisoned--
		}
		return false, err
	}
	if ns.conn == nc && ns.state == NodeUp {
		failLocked(ns, nc)
	}
	if ns.poisoned > 0 {
		ns.poisoned--
	}
	return true, nil
}

// degTagRead returns the degraded route tag for a read under the client's
// policy: a synthesized miss, or a synthesized error.
func (c *Client) degTagRead() uint32 {
	if c.opts.Policy == DegradedMissReads {
		return routeDegMiss
	}
	return routeDegErr
}

// reconnectLoop is node i's background reconnector: woken by a failover
// kick, it runs verified-dial rounds (each bounded by ReconnectWindow's
// backoff) until the node answers, confirming the node down after DownAfter
// consecutive failed rounds. It installs the new connection and closes the
// circuit atomically with the health transition, then sleeps until the next
// failover.
func (c *Client) reconnectLoop(i int) {
	ns := &c.nstates[i]
	for {
		select {
		case <-c.stop:
			return
		case <-ns.kick:
		}
		rounds := 0
		for {
			select {
			case <-c.stop:
				return
			default:
			}
			nc, err := c.opts.dialReconnect(c.addrs[i])
			if err != nil {
				rounds++
				if rounds >= c.opts.DownAfter {
					ns.mu.Lock()
					if ns.state == NodeSuspect {
						ns.state = NodeDown
					}
					ns.mu.Unlock()
				}
				// A custom NodeDialer may fail instantly; don't spin.
				time.Sleep(5 * time.Millisecond)
				continue
			}
			ns.mu.Lock()
			select {
			case <-c.stop:
				ns.mu.Unlock()
				nc.Abort()
				return
			default:
			}
			ns.conn = nc
			ns.state = NodeUp
			ns.reconnects++
			ns.mu.Unlock()
			break
		}
	}
}

// DialOptions connects one pipelined connection to every node with explicit
// failover options. The address list order is the cluster's identity: the
// same ordered list routes the same keys to the same nodes, across clients
// and across restarts. Unless AllowInitialDown is set, a node that cannot
// be reached fails the whole call — with every connection already made
// closed, so a failed Dial leaks nothing.
func DialOptions(opts Options, addrs ...string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no node addresses")
	}
	opts.fill()
	c := &Client{
		router:  NewRouter(len(addrs)),
		addrs:   append([]string(nil), addrs...),
		nstates: make([]nodeState, len(addrs)),
		reqs:    make([]uint64, len(addrs)),
		counts:  make([]int32, len(addrs)),
		stop:    make(chan struct{}),
		opts:    opts,
	}
	for i, a := range c.addrs {
		ns := &c.nstates[i]
		ns.kick = make(chan struct{}, 1)
		nc, err := opts.dialInitial(a)
		if err != nil {
			if !opts.AllowInitialDown {
				// Close the nodes already connected: a failed Dial must not
				// leak the partial progress it made.
				for j := 0; j < i; j++ {
					if pc := c.nstates[j].conn; pc != nil {
						pc.Close()
					}
				}
				return nil, fmt.Errorf("cluster: node %d (%s): %w", i, a, err)
			}
			ns.state = NodeDown
			ns.failovers++
			ns.kick <- struct{}{}
			continue
		}
		ns.conn = nc
		ns.state = NodeUp
	}
	for i := range c.nstates {
		go c.reconnectLoop(i)
	}
	return c, nil
}

// Health returns node i's health snapshot.
func (c *Client) Health(i int) NodeHealth {
	ns := &c.nstates[i]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return NodeHealth{State: ns.state, Failovers: ns.failovers, Reconnects: ns.reconnects}
}

// NodeFailovers sums failover and reconnect events across the nodes.
func (c *Client) NodeFailovers() (failovers, reconnects uint64) {
	for i := range c.nstates {
		h := c.Health(i)
		failovers += h.Failovers
		reconnects += h.Reconnects
	}
	return failovers, reconnects
}

// DegradedCounts reports how many responses this client synthesized under
// degraded mode: reads answered as misses, and requests answered with
// ErrNodeDown.
func (c *Client) DegradedCounts() (misses, errs uint64) {
	return c.degMisses.Load(), c.degErrors.Load()
}

// WaitHealthy blocks until every node is NodeUp or the timeout passes,
// reporting whether it got there — the chaos harness's recovery barrier.
func (c *Client) WaitHealthy(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for i := range c.nstates {
			if c.Health(i).State != NodeUp {
				all = false
				break
			}
		}
		if all {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
