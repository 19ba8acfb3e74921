package server

import (
	"errors"
	"strings"
	"time"
)

// ServerError is a protocol-level error line — "ERROR", "CLIENT_ERROR …",
// "SERVER_ERROR …" — received where a response was expected. The distinction
// it carries matters to every caller that pipelines: a ServerError means the
// server *answered*, so the connection is still response-aligned and usable
// for the requests queued behind it, whereas a transport error means the
// stream's framing is gone and nothing further on the conn can be trusted.
// The cluster failover layer keys on exactly this split (protocol error →
// node healthy, transport error → node suspect).
type ServerError struct {
	// Line is the raw response line, e.g. "SERVER_ERROR busy".
	Line string
}

func (e *ServerError) Error() string { return "server: " + e.Line }

// serverError converts an error-class response line into a *ServerError;
// non-error lines return nil.
func serverError(line string) error {
	if line == "ERROR" || strings.HasPrefix(line, "CLIENT_ERROR") ||
		strings.HasPrefix(line, "SERVER_ERROR") {
		return &ServerError{Line: line}
	}
	return nil
}

// DegradedError marks an error synthesized locally by a degraded-mode client:
// the request was routed to a node currently down, no bytes crossed the wire,
// and the client's pipeline is still perfectly aligned. Load generators and
// proxies use the distinction to keep driving through a node outage — a
// degraded error is countable and continuable, a transport error is not.
// Defined here (not in the cluster package) so server-level consumers can
// test for it without importing the cluster layer.
type DegradedError interface {
	error
	Degraded() bool
}

// IsDegraded reports whether err, or anything it wraps, is a DegradedError.
func IsDegraded(err error) bool {
	var d DegradedError
	return errors.As(err, &d) && d.Degraded()
}

// verifyTimeout bounds the liveness probe of one DialRetryVerified attempt,
// so a connection that accepts but never answers cannot stall the retry loop
// past the caller's deadline.
const verifyTimeout = time.Second

// DialRetry dials addr, retrying failed connection attempts with bounded,
// jittered exponential backoff until timeout elapses. A freshly exec'd
// server loses the race against its first client all the time (multi-process
// cluster boots make it a certainty), and connection refused during that
// window is a scheduling artifact, not an error — so the client absorbs it
// here instead of every launcher script growing its own sleep loop. A
// timeout <= 0 degenerates to a single attempt.
func DialRetry(addr string, timeout time.Duration) (*Client, error) {
	return dialRetry(addr, timeout, false)
}

// DialRetryVerified is DialRetry with a liveness probe per attempt: after a
// successful dial it round-trips a version request and only returns a client
// the server actually answered. This is the reconnect primitive for
// failover — a rebooting node's kernel can accept connections before the
// process serves them (and a dying one accepts, then resets), and handing
// such a half-alive connection back to the router would only fail over
// again. Probe failures retry under the same backoff as dial failures.
func DialRetryVerified(addr string, timeout time.Duration) (*Client, error) {
	return dialRetry(addr, timeout, true)
}

func dialRetry(addr string, timeout time.Duration, verify bool) (*Client, error) {
	deadline := time.Now().Add(timeout)
	backoff := 5 * time.Millisecond
	for {
		c, err := Dial(addr)
		if err == nil && verify {
			c.c.SetDeadline(time.Now().Add(verifyTimeout))
			if _, verr := c.Version(); verr != nil {
				c.Abort()
				err = verr
			} else {
				c.c.SetDeadline(time.Time{})
			}
		}
		if err == nil {
			return c, nil
		}
		if timeout <= 0 || !time.Now().Before(deadline) {
			return nil, err
		}
		// Full jitter over the current backoff window, so N clients racing
		// one booting server spread out instead of stampeding in lockstep.
		sleep := time.Duration(uint64(time.Now().UnixNano()) % uint64(backoff))
		if remain := time.Until(deadline); sleep > remain {
			sleep = remain
		}
		time.Sleep(sleep + time.Millisecond)
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}
