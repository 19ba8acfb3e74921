package linkedlist

import (
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/perf"
)

// cowSnapshot is an immutable sorted array of elements. Readers binary-search
// a snapshot; writers build a new one.
type cowSnapshot struct {
	keys []core.Key
	vals []core.Value
}

func (s *cowSnapshot) find(k core.Key) (int, bool) {
	i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= k })
	return i, i < len(s.keys) && s.keys[i] == k
}

// Copy is the copy-on-write list (Table 1): updates create a fresh copy of
// the whole structure under a global lock, reads binary-search an immutable
// snapshot. The paper highlights both its strength (serial array accesses
// are extremely cache-friendly — an observation that feeds CLHT's design,
// §5/ASCY1 discussion) and its two limitations: per-update copying cost and
// the global lock bottleneck.
type Copy struct {
	core.OrderedVia
	snap         atomic.Pointer[cowSnapshot]
	lock         locks.TAS
	readOnlyFail bool
}

// NewCopy returns an empty copy-on-write list.
func NewCopy(cfg core.Config) *Copy {
	l := &Copy{readOnlyFail: cfg.ReadOnlyFail}
	l.snap.Store(&cowSnapshot{})
	l.OrderedVia = core.OrderedVia{Ascend: l.ascend}
	return l
}

// SearchCtx implements core.Instrumented.
func (l *Copy) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	s := l.snap.Load()
	c.Add(perf.EvTraverse, uint64(log2ceil(len(s.keys))))
	if i, ok := s.find(k); ok {
		return s.vals[i], true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (l *Copy) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	if l.readOnlyFail {
		c.ParseBegin()
		_, ok := l.snap.Load().find(k)
		c.ParseEnd()
		if ok {
			return false // ASCY3
		}
	}
	l.lock.Lock()
	c.Inc(perf.EvLock)
	defer l.lock.Unlock()
	s := l.snap.Load()
	i, ok := s.find(k)
	if ok {
		return false
	}
	n := len(s.keys)
	ns := &cowSnapshot{keys: make([]core.Key, n+1), vals: make([]core.Value, n+1)}
	copy(ns.keys, s.keys[:i])
	copy(ns.vals, s.vals[:i])
	ns.keys[i], ns.vals[i] = k, v
	copy(ns.keys[i+1:], s.keys[i:])
	copy(ns.vals[i+1:], s.vals[i:])
	c.Add(perf.EvStore, uint64(n+1)) // the copy is the store cost
	l.snap.Store(ns)
	c.Inc(perf.EvStore)
	return true
}

// RemoveCtx implements core.Instrumented.
func (l *Copy) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	if l.readOnlyFail {
		c.ParseBegin()
		_, ok := l.snap.Load().find(k)
		c.ParseEnd()
		if !ok {
			return 0, false // ASCY3
		}
	}
	l.lock.Lock()
	c.Inc(perf.EvLock)
	defer l.lock.Unlock()
	s := l.snap.Load()
	i, ok := s.find(k)
	if !ok {
		return 0, false
	}
	v := s.vals[i]
	n := len(s.keys)
	ns := &cowSnapshot{keys: make([]core.Key, n-1), vals: make([]core.Value, n-1)}
	copy(ns.keys, s.keys[:i])
	copy(ns.vals, s.vals[:i])
	copy(ns.keys[i:], s.keys[i+1:])
	copy(ns.vals[i:], s.vals[i+1:])
	c.Add(perf.EvStore, uint64(n-1))
	l.snap.Store(ns)
	c.Inc(perf.EvStore)
	return v, true
}

// Search looks up k.
func (l *Copy) Search(k core.Key) (core.Value, bool) { return l.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (l *Copy) Insert(k core.Key, v core.Value) bool { return l.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (l *Copy) Remove(k core.Key) (core.Value, bool) { return l.RemoveCtx(nil, k) }

func log2ceil(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}
