// Package skiplist implements the skip-list algorithms of Table 1: the
// sequential list (async bound), Pugh's concurrent maintenance, the
// Herlihy–Lev–Luchangco–Shavit optimistic skip list, and Fraser's lock-free
// skip list together with fraser-opt, the paper's ASCY1–2 re-engineering
// (§5, Figure 5).
//
// All variants share the geometric (p = 1/2) level distribution and
// head/tail sentinels. The lock-free variants keep Fraser's per-level
// marked pointers as tagged words (internal/mark), as in internal/linkedlist.
package skiplist

import (
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/core"
)

const (
	headKey = core.Key(0)
	tailKey = core.Key(math.MaxUint64)
	// maxHeight bounds towers regardless of configuration; parse buffers
	// are fixed-size arrays of this height.
	maxHeight = 32
)

// randomLevel draws a tower height in [1, maxLevel] with P(h) = 2^-h,
// using the runtime's per-thread generator so level generation adds no
// shared-memory traffic (the C library uses per-thread seeds for the same
// reason).
func randomLevel(maxLevel int) int {
	h := bits.TrailingZeros64(rand.Uint64()|1<<63) + 1
	if h > maxLevel {
		h = maxLevel
	}
	return h
}

func clampLevel(cfg core.Config) int {
	l := cfg.MaxLevel
	if l < 1 {
		l = 1
	}
	if l > maxHeight {
		l = maxHeight
	}
	return l
}

func register(name string, class core.Class, desc string, safe, ascy bool, f func(cfg core.Config) core.Set) {
	core.Register(core.Algorithm{
		Name:      "sl-" + name,
		Structure: core.SkipList,
		Class:     class,
		Desc:      desc,
		Safe:      safe,
		ASCY:      ascy,
		Ordered:   true, // skip lists enumerate level 0 in key order
		New:       f,
	})
}

func init() {
	register("async", core.Seq,
		"sequential skip list run unsynchronized; the async upper bound",
		false, false, func(cfg core.Config) core.Set { return NewSeq(cfg) })
	register("pugh", core.LockBased,
		"several levels of pugh lists; unlocked parse, per-node locks level by level (Pugh '90)",
		true, true, func(cfg core.Config) core.Set { return NewPugh(cfg) })
	register("herlihy", core.LockBased,
		"optimistic skip list: lock all preds, validate, link; marked+fullyLinked flags (Herlihy et al.)",
		true, true, func(cfg core.Config) core.Set { return NewHerlihy(cfg) })
	register("fraser", core.LockFree,
		"Fraser's lock-free skip list: CAS per level; parse restarts on failed cleanup or marked level switch",
		true, false, func(cfg core.Config) core.Set { return NewFraser(cfg, false) })
	register("fraser-opt", core.LockFree,
		"fraser re-engineered with ASCY1-2: searches/parses skip marked nodes without helping or restarting",
		true, true, func(cfg core.Config) core.Set { return NewFraser(cfg, true) })
}
