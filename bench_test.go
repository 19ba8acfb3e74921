// Benchmarks: one testing.B entry point per table/figure of the paper's
// evaluation. Each benchmark drives the same workload as the corresponding
// figure runner in internal/harness and reports Mops/s plus the figure's
// companion metric as testing.B custom metrics. For the full tables (thread
// sweeps, all algorithms, paper protocol) use:
//
//	go run ./cmd/ascybench -all [-paper]
//
// Benchmark naming: BenchmarkFigN<What>/<algorithm>. go test -bench=Fig4
// reproduces Figure 4's comparison, and so on.
package ascylib_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/workload"

	_ "repro"
)

// measureAllocs wraps a run with process-wide allocation accounting and
// returns heap allocations per completed operation — the ASCY4 companion
// metric every figure benchmark now reports (GC pressure is where Go
// concurrent structures lose their scaling; see DESIGN.md "Allocation
// discipline"). Process-wide means the workload's own bookkeeping is
// included, so treat it as an upper bound; the AllocsPerRun gates in
// alloc_gate_test.go pin the search paths at exactly zero.
func measureAllocs(run func() workload.Result) (workload.Result, float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := run()
	runtime.ReadMemStats(&m1)
	if res.Ops == 0 {
		return res, 0
	}
	return res, float64(m1.Mallocs-m0.Mallocs) / float64(res.Ops)
}

// benchThreads is the per-benchmark worker count: the paper's 20-thread
// reference scaled to the host, floored at 4 (see harness.Options).
func benchThreads() int {
	t := runtime.GOMAXPROCS(0)
	if t < 4 {
		t = 4
	}
	if t > 20 {
		t = 20
	}
	return t
}

// runFigure executes one workload long enough to cover b.N operations and
// reports throughput metrics.
func runFigure(b *testing.B, algo string, initial, updatePct int, mutate ...func(*workload.Config)) workload.Result {
	b.Helper()
	cfg := workload.Config{
		Algorithm: algo,
		Options:   []core.Option{core.Capacity(initial)},
		Initial:   initial,
		UpdatePct: updatePct,
		Threads:   benchThreads(),
		// Scale duration with b.N so -benchtime works naturally; one
		// op costs well under 10µs on every structure here.
		Duration: time.Duration(b.N) * 2 * time.Microsecond,
		Seed:     42,
	}
	if cfg.Duration < 50*time.Millisecond {
		cfg.Duration = 50 * time.Millisecond
	}
	if cfg.Duration > 3*time.Second {
		cfg.Duration = 3 * time.Second
	}
	for _, m := range mutate {
		m(&cfg)
	}
	b.ResetTimer()
	var err error
	res, allocsPerOp := measureAllocs(func() workload.Result {
		var r workload.Result
		r, err = workload.Run(cfg)
		return r
	})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(res.Mops(), "Mops/s")
	b.ReportMetric(res.CoherencePerOp(), "coh-events/op")
	// "allocs/op" overrides -benchmem's builtin (which divides by b.N and
	// is meaningless for duration-scaled runs) but testing truncates its
	// display to an integer, so the full-resolution ledger rides on
	// allocs/kop: heap allocations per thousand operations.
	b.ReportMetric(allocsPerOp, "allocs/op")
	b.ReportMetric(1000*allocsPerOp, "allocs/kop")
	return res
}

// --- Table 1: the catalogue itself is exercised per family -----------------

func BenchmarkTable1Catalogue(b *testing.B) {
	for _, a := range core.All() {
		if !a.Safe {
			continue
		}
		b.Run(a.Name, func(b *testing.B) {
			runFigure(b, a.Name, 512, 10)
		})
	}
}

// --- Figure 2: cross-workload throughput per structure ---------------------

func benchFig2(b *testing.B, algos []string) {
	for _, w := range []struct {
		name             string
		initial, updates int
	}{
		{"avg-4096elem-10upd", 4096, 10},
		{"high-512elem-25upd", 512, 25},
		{"low-16384elem-10upd", 16384, 10},
	} {
		b.Run(w.name, func(b *testing.B) {
			for _, algo := range algos {
				b.Run(algo, func(b *testing.B) {
					runFigure(b, algo, w.initial, w.updates)
				})
			}
		})
	}
}

func BenchmarkFig2aLinkedList(b *testing.B) {
	benchFig2(b, []string{"ll-async", "ll-lazy", "ll-pugh", "ll-copy", "ll-coupling", "ll-harris", "ll-michael"})
}

func BenchmarkFig2bHashTable(b *testing.B) {
	benchFig2(b, []string{"ht-async", "ht-coupling", "ht-lazy", "ht-pugh", "ht-copy", "ht-urcu", "ht-java", "ht-tbb", "ht-harris"})
}

func BenchmarkFig2cSkipList(b *testing.B) {
	benchFig2(b, []string{"sl-async", "sl-pugh", "sl-herlihy", "sl-fraser"})
}

func BenchmarkFig2dBST(b *testing.B) {
	benchFig2(b, []string{"bst-async-int", "bst-async-ext", "bst-bronson", "bst-drachsler", "bst-ellen", "bst-howley", "bst-natarajan"})
}

// --- Figure 3: coherence events/op vs scalability (linked lists) -----------

func BenchmarkFig3CacheEvents(b *testing.B) {
	for _, algo := range []string{"ll-async", "ll-copy", "ll-coupling", "ll-harris", "ll-lazy", "ll-michael", "ll-pugh"} {
		b.Run(algo, func(b *testing.B) {
			res := runFigure(b, algo, 4096, 10)
			b.ReportMetric(res.Perf.PerOp(perf.EvStore), "stores/op")
			b.ReportMetric(res.Perf.PerOp(perf.EvLock), "locks/op")
		})
	}
}

// --- Figure 4: ASCY1 (linked lists, search-dominated) -----------------------

func BenchmarkFig4LinkedList(b *testing.B) {
	sample := func(c *workload.Config) { c.SampleEvery = 16 }
	for _, algo := range []string{"ll-async", "ll-lazy", "ll-pugh", "ll-copy", "ll-harris", "ll-michael", "ll-harris-opt"} {
		b.Run(algo, func(b *testing.B) {
			res := runFigure(b, algo, 1024, 5, sample)
			if s := res.Latency[workload.OpSearchHit]; s.N > 0 {
				b.ReportMetric(s.MeanNS, "search-ns")
			}
		})
	}
}

// --- Figure 5: ASCY2 (skip lists, parse phase) ------------------------------

func BenchmarkFig5SkipList(b *testing.B) {
	opts := func(c *workload.Config) { c.SampleEvery = 16; c.ParseTiming = true }
	for _, algo := range []string{"sl-async", "sl-pugh", "sl-herlihy", "sl-fraser", "sl-fraser-opt"} {
		b.Run(algo, func(b *testing.B) {
			res := runFigure(b, algo, 1024, 20, opts)
			if res.Perf.Updates > 0 {
				b.ReportMetric(100*float64(res.Perf.Count(perf.EvParseRestart))/float64(res.Perf.Updates), "parse-restart-%")
			}
		})
	}
}

// --- Figure 6: ASCY3 (hash tables, read-only failed updates) ----------------

func BenchmarkFig6HashTableASCY3(b *testing.B) {
	sample := func(c *workload.Config) { c.SampleEvery = 16 }
	for _, algo := range []string{"ht-async", "ht-lazy-no", "ht-lazy", "ht-pugh-no", "ht-pugh", "ht-copy-no", "ht-copy", "ht-java-no", "ht-java"} {
		b.Run(algo, func(b *testing.B) {
			res := runFigure(b, algo, 8192, 10, sample)
			fi, fr := res.Latency[workload.OpInsertFalse], res.Latency[workload.OpRemoveFalse]
			if n := fi.N + fr.N; n > 0 {
				b.ReportMetric((fi.MeanNS*float64(fi.N)+fr.MeanNS*float64(fr.N))/float64(n), "failed-update-ns")
			}
		})
	}
}

// --- Figure 7: ASCY4 (BSTs, modification phase) ------------------------------

func BenchmarkFig7BST(b *testing.B) {
	sample := func(c *workload.Config) { c.SampleEvery = 16 }
	for _, algo := range []string{"bst-async-int", "bst-async-ext", "bst-bronson", "bst-drachsler", "bst-ellen", "bst-howley", "bst-natarajan"} {
		b.Run(algo, func(b *testing.B) {
			res := runFigure(b, algo, 2048, 20, sample)
			if res.SuccUpdates > 0 {
				b.ReportMetric(float64(res.Perf.Count(perf.EvCAS)+res.Perf.Count(perf.EvCASFail))/float64(res.SuccUpdates), "atomics/upd")
				b.ReportMetric(float64(res.Perf.Count(perf.EvLock))/float64(res.SuccUpdates), "locks/upd")
			}
		})
	}
}

// --- Figure 8: CLHT vs pugh --------------------------------------------------

func BenchmarkFig8CLHT(b *testing.B) {
	for _, upd := range []int{0, 1, 20, 100} {
		b.Run(map[int]string{0: "0upd", 1: "1upd", 20: "20upd", 100: "100upd"}[upd], func(b *testing.B) {
			for _, algo := range []string{"ht-pugh", "ht-clht-lb", "ht-clht-lf"} {
				b.Run(algo, func(b *testing.B) {
					runFigure(b, algo, 4096, upd)
				})
			}
		})
	}
}

// --- Figure 9: BST-TK vs natarajan --------------------------------------------

func BenchmarkFig9BSTTK(b *testing.B) {
	for _, upd := range []int{0, 1, 10, 20, 100} {
		b.Run(map[int]string{0: "0upd", 1: "1upd", 10: "10upd", 20: "20upd", 100: "100upd"}[upd], func(b *testing.B) {
			for _, algo := range []string{"bst-natarajan", "bst-tk"} {
				b.Run(algo, func(b *testing.B) {
					runFigure(b, algo, 4096, upd)
				})
			}
		})
	}
}

// --- Ablations beyond the paper's figures: design choices DESIGN.md calls out

// BenchmarkAblationASCY1 isolates the search path: pure search workload over
// harris (helping searches) vs harris-opt (clean searches).
func BenchmarkAblationASCY1(b *testing.B) {
	for _, algo := range []string{"ll-harris", "ll-harris-opt"} {
		b.Run(algo, func(b *testing.B) {
			runFigure(b, algo, 1024, 0)
		})
	}
}

// BenchmarkAblationGracePeriod isolates ASCY4's memory-management choice:
// urcu's synchronous grace period vs SSMEM epochs, update-heavy.
func BenchmarkAblationGracePeriod(b *testing.B) {
	for _, algo := range []string{"ht-urcu", "ht-urcu-ssmem"} {
		b.Run(algo, func(b *testing.B) {
			runFigure(b, algo, 4096, 50)
		})
	}
}

// BenchmarkAblationCLHTVariants compares the lock-based and lock-free CLHT
// under growing update pressure (the paper: lb ahead at 20 threads, lf ahead
// oversubscribed).
func BenchmarkAblationCLHTVariants(b *testing.B) {
	oversub := func(c *workload.Config) { c.Threads = 2 * benchThreads() }
	for _, algo := range []string{"ht-clht-lb", "ht-clht-lf"} {
		b.Run(algo+"/ref-threads", func(b *testing.B) {
			runFigure(b, algo, 4096, 20)
		})
		b.Run(algo+"/oversubscribed", func(b *testing.B) {
			runFigure(b, algo, 4096, 20, oversub)
		})
	}
}
