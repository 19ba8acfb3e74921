package skiplist

import (
	"repro/internal/core"
	"repro/internal/perf"
)

type seqNode struct {
	key  core.Key
	val  core.Value
	next []*seqNode
}

// Seq is the textbook sequential skip list; shared unsynchronized it is the
// paper's async skip-list upper bound. As the paper observes, racing updates
// can leave tower pointers inconsistent ("longer average path lengths"), so
// traversals carry the AsyncStepLimit bail-out.
type Seq struct {
	core.OrderedVia
	head     *seqNode
	maxLevel int
	limit    int
}

// NewSeq returns an empty sequential skip list.
func NewSeq(cfg core.Config) *Seq {
	ml := clampLevel(cfg)
	tail := &seqNode{key: tailKey, next: make([]*seqNode, ml)}
	head := &seqNode{key: headKey, next: make([]*seqNode, ml)}
	for i := range head.next {
		head.next[i] = tail
	}
	s := &Seq{head: head, maxLevel: ml, limit: cfg.AsyncStepLimit}
	s.OrderedVia = core.OrderedVia{Ascend: s.ascend}
	return s
}

// parse fills preds/succs and returns the level-0 candidate.
func (l *Seq) parse(c *perf.Ctx, k core.Key, preds, succs []*seqNode) *seqNode {
	pred := l.head
	steps := 0
	for lvl := l.maxLevel - 1; lvl >= 0; lvl-- {
		curr := pred.next[lvl]
		for curr != nil && curr.key < k {
			c.Inc(perf.EvTraverse)
			pred = curr
			curr = curr.next[lvl]
			if steps++; l.limit > 0 && steps > l.limit {
				curr = nil
			}
		}
		if curr == nil { // malformed under races; treat as tail
			curr = &seqNode{key: tailKey, next: make([]*seqNode, l.maxLevel)}
		}
		preds[lvl] = pred
		succs[lvl] = curr
	}
	return succs[0]
}

// SearchCtx implements core.Instrumented.
func (l *Seq) SearchCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	var preds, succs [maxHeight]*seqNode
	n := l.parse(c, k, preds[:l.maxLevel], succs[:l.maxLevel])
	if n.key == k {
		return n.val, true
	}
	return 0, false
}

// InsertCtx implements core.Instrumented.
func (l *Seq) InsertCtx(c *perf.Ctx, k core.Key, v core.Value) bool {
	var preds, succs [maxHeight]*seqNode
	c.ParseBegin()
	n := l.parse(c, k, preds[:l.maxLevel], succs[:l.maxLevel])
	c.ParseEnd()
	if n.key == k {
		return false
	}
	h := randomLevel(l.maxLevel)
	node := &seqNode{key: k, val: v, next: make([]*seqNode, h)}
	for lvl := 0; lvl < h; lvl++ {
		node.next[lvl] = succs[lvl]
		preds[lvl].next[lvl] = node
		c.Inc(perf.EvStore)
	}
	return true
}

// RemoveCtx implements core.Instrumented.
func (l *Seq) RemoveCtx(c *perf.Ctx, k core.Key) (core.Value, bool) {
	var preds, succs [maxHeight]*seqNode
	c.ParseBegin()
	n := l.parse(c, k, preds[:l.maxLevel], succs[:l.maxLevel])
	c.ParseEnd()
	if n.key != k {
		return 0, false
	}
	for lvl := 0; lvl < len(n.next); lvl++ {
		if preds[lvl].next[lvl] == n {
			preds[lvl].next[lvl] = n.next[lvl]
			c.Inc(perf.EvStore)
		}
	}
	return n.val, true
}

// Search looks up k.
func (l *Seq) Search(k core.Key) (core.Value, bool) { return l.SearchCtx(nil, k) }

// Insert adds (k, v) if k is absent.
func (l *Seq) Insert(k core.Key, v core.Value) bool { return l.InsertCtx(nil, k, v) }

// Remove deletes k if present.
func (l *Seq) Remove(k core.Key) (core.Value, bool) { return l.RemoveCtx(nil, k) }
