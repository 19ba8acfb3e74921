package linkedlist

import (
	"repro/internal/core"
	"repro/internal/perf"
)

// seqNode is a plain, unsynchronized list node.
type seqNode struct {
	key  core.Key
	val  core.Value
	next *seqNode
}

// Seq is the sequential sorted linked list. Used on its own it is a correct
// single-threaded set; shared by several goroutines without synchronization
// it is the paper's "async" upper bound — an intentionally incorrect
// deployment whose throughput approximates the best any correct concurrent
// list could achieve (§1, §4).
//
// Because racing updates can malform the list (the paper observes e.g.
// lengthened paths), traversals are bounded by Config.AsyncStepLimit so a
// cycle cannot hang the harness; a bailed-out traversal reports "not found",
// which only ever makes the async bound look slightly worse.
type Seq struct {
	core.OrderedVia
	head  *seqNode
	limit int
}

// NewSeq returns an empty sequential list.
func NewSeq(cfg core.Config) *Seq {
	tail := &seqNode{key: tailKey}
	head := &seqNode{key: headKey, next: tail}
	s := &Seq{head: head, limit: cfg.AsyncStepLimit}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

func (l *Seq) parse(c *perf.Ctx, k core.Key) (pred, curr *seqNode) {
	pred = l.head
	curr = pred.next
	steps := 0
	for curr.key < k {
		c.Inc(perf.EvTraverse)
		pred = curr
		curr = curr.next
		if curr == nil {
			// Malformed under races: treat as end of list.
			return pred, &seqNode{key: tailKey}
		}
		if steps++; l.limit > 0 && steps > l.limit {
			return pred, &seqNode{key: tailKey}
		}
	}
	return pred, curr
}

// SearchCtx implements core.Instrumented.
func (l *Seq) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	_, curr := l.parse(c, k)
	if curr.key == k {
		return curr.val, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (l *Seq) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	c.ParseBegin()
	pred, curr := l.parse(c, k)
	c.ParseEnd()
	if curr.key == k {
		return false
	}
	pred.next = &seqNode{key: k, val: v, next: curr}
	c.Inc(perf.EvStore)
	return true
}

// RemoveCtx implements core.Instrumented.
func (l *Seq) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	c.ParseBegin()
	pred, curr := l.parse(c, k)
	c.ParseEnd()
	if curr.key != k {
		return 0, false
	}
	pred.next = curr.next
	c.Inc(perf.EvStore)
	return curr.val, true
}

// Search looks up k.
func (l *Seq) Search(k core.Key) (core.Value, bool) { return l.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (l *Seq) Insert(k core.Key, v core.Value) bool { return l.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (l *Seq) Remove(k core.Key) (core.Value, bool) { return l.RemoveCtx(nil, k) }
