// Package linkedlist implements the seven linked-list algorithms of Table 1
// plus harris-opt, the paper's ASCY1–2 re-engineering of harris (§5).
//
// All lists are sorted sets over 64-bit keys with head/tail sentinels
// (key 0 and key MaxUint64 respectively; workload keys live strictly
// between). The lock-free lists keep Harris's marked pointer as in C: a
// node's next is one word with the deletion mark in its low bit
// (internal/mark), so a CAS validates successor and mark together.
package linkedlist

import (
	"math"

	"repro/internal/core"
)

const (
	headKey = core.Key(0)
	tailKey = core.Key(math.MaxUint64)
)

func register(name string, class core.Class, desc string, safe, ascy bool, f func(cfg core.Config) core.Set) {
	core.Register(core.Algorithm{
		Name:      "ll-" + name,
		Structure: core.LinkedList,
		Class:     class,
		Desc:      desc,
		Safe:      safe,
		ASCY:      ascy,
		Ordered:   true, // every list is a sorted set with native Range
		New:       f,
	})
}

func init() {
	register("async", core.Seq,
		"sequential linked list run unsynchronized; the paper's incorrect asynchronized upper bound",
		false, false, func(cfg core.Config) core.Set { return NewSeq(cfg) })
	register("coupling", core.FullyLockBased,
		"hand-over-hand locking on every operation (Herlihy & Shavit)",
		true, false, func(cfg core.Config) core.Set { return NewCoupling(cfg) })
	register("pugh", core.LockBased,
		"optimistic parse, per-node locks with validation, pointer reversal on delete (Pugh '90)",
		true, true, func(cfg core.Config) core.Set { return NewPugh(cfg) })
	register("pugh-no", core.LockBased,
		"pugh with ASCY3 disabled: unsuccessful updates still lock",
		true, false, func(cfg core.Config) core.Set { cfg.ReadOnlyFail = false; return NewPugh(cfg) })
	register("lazy", core.LockBased,
		"lazy list: logical mark then physical unlink under locks; wait-free search (Heller et al.)",
		true, true, func(cfg core.Config) core.Set { return NewLazy(cfg) })
	register("lazy-no", core.LockBased,
		"lazy with ASCY3 disabled: unsuccessful updates still lock",
		true, false, func(cfg core.Config) core.Set { cfg.ReadOnlyFail = false; return NewLazy(cfg) })
	register("copy", core.LockBased,
		"copy-on-write sorted array under a global lock (CopyOnWriteArrayList-style)",
		true, false, func(cfg core.Config) core.Set { return NewCopy(cfg) })
	register("copy-no", core.LockBased,
		"copy with ASCY3 disabled: unsuccessful updates take the global lock",
		true, false, func(cfg core.Config) core.Set { cfg.ReadOnlyFail = false; return NewCopy(cfg) })
	register("harris", core.LockFree,
		"lock-free list with two-step (mark, unlink) deletes; searches clean up and may restart (Harris '01)",
		true, false, func(cfg core.Config) core.Set { return NewHarris(cfg, false) })
	register("harris-opt", core.LockFree,
		"harris re-engineered with ASCY1-2: searches/parses ignore marked nodes, never store, never restart",
		true, true, func(cfg core.Config) core.Set { return NewHarris(cfg, true) })
	register("michael", core.LockFree,
		"Michael's refactoring of harris: per-node unlink during traversal, restart from head on conflict",
		true, false, func(cfg core.Config) core.Set { return NewMichael(cfg) })
}
