package main

import (
	"strconv"
	"time"
)

// workload is one fixed set of inputs. The table below is the benchmark's
// definition: names, sizes, mixes and server flags are constants, so two
// result sets are comparable exactly when they come from the same table.
// Why each one exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	index int
	name  string

	lib      bool   // in-process through core.Set instead of over the wire
	algo     string // registry name of the structure
	shards   int    // ascyserve -shards
	ordered  bool   // ascyserve -ordered
	snapshot bool   // ascyserve -snapshot/-snapshotinterval, and the warm-restart set-up
	route    bool   // the ladder also times the cluster router over this tape

	keys     int // keyspace size, a power of two; ids [0, keys/2) are pinned
	valueLen int
	window   int // W: requests each connection keeps outstanding
	tapeOps  int // requests per tape

	// The mix, in percent. On the library workload get/set/delete are
	// Search/Insert/Remove.
	getPct, setPct, deletePct, scanPct int

	// setsUnpinned keeps sets (Inserts) off the pinned half too. The library
	// protocol needs it (an Insert of a present key does nothing); wire-scan
	// needs it because a set on a structure without a native Update is a
	// remove followed by an insert, and a reader in between misses the key.
	setsUnpinned bool

	absentGetPct   int     // share of gets aimed at ids that are never stored
	expiringSetPct int     // share of sets that carry exptime 2 s
	scanLen        int     // keys (and limit) of one mrange
	zipfS          float64 // 0 = uniform
}

var workloads = []*workload{
	{
		name: "lib-tree", lib: true, algo: "bst-tk",
		keys: 1 << 19, tapeOps: 1 << 18,
		getPct: 80, setPct: 10, deletePct: 10, setsUnpinned: true,
	},
	{
		name: "wire-get", algo: "ht-clht-lb", shards: 1, route: true,
		keys: 1 << 16, valueLen: 64, window: 32, tapeOps: 1 << 18,
		getPct: 95, setPct: 5, absentGetPct: 10,
	},
	{
		name: "wire-rr", algo: "ht-clht-lb", shards: 1,
		keys: 1 << 12, valueLen: 64, window: 1, tapeOps: 1 << 18,
		getPct: 90, setPct: 10,
	},
	{
		name: "wire-churn", algo: "ht-clht-lb", shards: 4, snapshot: true,
		keys: 1 << 17, valueLen: 1024, window: 16, tapeOps: 1 << 16,
		getPct: 40, setPct: 40, deletePct: 20, expiringSetPct: 25, zipfS: 1.1,
	},
	{
		name: "wire-scan", algo: "sl-fraser-opt", shards: 2, ordered: true,
		keys: 1 << 16, valueLen: 64, window: 8, tapeOps: 1 << 18,
		getPct: 70, setPct: 10, scanPct: 20, scanLen: 32, setsUnpinned: true,
	},
}

func init() {
	for i, wl := range workloads {
		wl.index = i
	}
}

// serverArgs are the ascyserve flags of a wire workload; everything not
// named here keeps the server's default. snapshotPath is used only by
// workloads that persist. Their background snapshot period is the window
// length, so that every measured window carries exactly one snapshot: with
// any other period some windows hold one and some none, their p99 differs
// by a third, and the median over windows flips between the two levels.
func (wl *workload) serverArgs(snapshotPath string, window time.Duration) []string {
	args := []string{"-algo", wl.algo, "-shards", strconv.Itoa(wl.shards)}
	if wl.ordered {
		args = append(args, "-ordered")
	}
	if wl.snapshot {
		args = append(args, "-snapshot", snapshotPath, "-snapshotinterval", window.String())
	}
	return args
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// pickKind maps two uniform draws in [0, 100) onto the mix.
func (wl *workload) pickKind(p, sub uint64) opKind {
	switch {
	case p < uint64(wl.getPct):
		return opGet
	case p < uint64(wl.getPct+wl.setPct):
		if sub < uint64(wl.expiringSetPct) {
			return opSetExpiring
		}
		return opSet
	case p < uint64(wl.getPct+wl.setPct+wl.deletePct):
		return opDelete
	}
	return opScan
}

// permanent is the number of low ids that can never be missing once
// preloaded: the pinned half, or the whole keyspace when the mix never
// deletes or expires anything and sets are free to land anywhere. A miss
// below it is a wrong answer.
func (wl *workload) permanent() uint32 {
	if wl.deletePct == 0 && wl.expiringSetPct == 0 && !wl.setsUnpinned {
		return uint32(wl.keys)
	}
	return uint32(wl.keys / 2)
}

// preloaded is the number of low ids the set-up stores: everything over the
// wire, the pinned half on the library workload (the paper's protocol
// starts the structure half full).
func (wl *workload) preloaded() uint32 {
	if wl.lib {
		return uint32(wl.keys / 2)
	}
	return uint32(wl.keys)
}
