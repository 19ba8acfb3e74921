// Command ascybench regenerates the tables and figures of the ASPLOS'15
// paper "Asynchronized Concurrency: The Secret to Scaling Concurrent Search
// Data Structures" on the local host.
//
// Usage:
//
//	ascybench list                  # capability matrix of the v2 surface
//	ascybench describe bst-tk       # one algorithm in detail
//	ascybench -list                 # Table 1: the algorithm catalogue
//	ascybench -fig fig2a            # one experiment (fig2a..fig2d, fig3..fig9, rangemix, summary)
//	ascybench -all                  # everything
//	ascybench -all -paper           # the paper's 5s x 11-rep protocol
//	ascybench -fig fig8 -threads 16 -duration 1s -reps 3
//	ascybench -bench ht-clht-lb -update 20 -initial 4096 -threads 8
//	ascybench -bench sl-fraser-opt -rangepct 10 -rangespan 100
//	ascybench -fig fig2a -cpu 1,2,4 # one pass per GOMAXPROCS value
//
// By default experiments run in quick mode (short runs, single repetition);
// -paper restores the paper's measurement protocol. Wire-level measurement
// of the server lives in benchmark/ (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/ascy"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"

	_ "repro" // register all implementations via the facade package
)

func main() {
	// Subcommands (the v2 registry surface) come before flag parsing so
	// the flag-based interface stays exactly as it was.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "list":
			printMatrix()
			return
		case "describe":
			if len(os.Args) < 3 {
				fmt.Fprintln(os.Stderr, "usage: ascybench describe <algorithm>")
				os.Exit(2)
			}
			if err := describeAlgorithm(os.Args[2]); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
	}
	var (
		list     = flag.Bool("list", false, "print the algorithm catalogue (Table 1) and exit")
		fig      = flag.String("fig", "", "experiment id to run (fig2a..fig2d, fig3..fig9, summary)")
		all      = flag.Bool("all", false, "run every experiment")
		paper    = flag.Bool("paper", false, "use the paper's protocol: 5s runs, median of 11 reps")
		duration = flag.Duration("duration", 0, "override run duration")
		reps     = flag.Int("reps", 0, "override repetitions (median reported)")
		threads  = flag.Int("threads", 0, "override the reference thread count (paper: 20)")
		maxThr   = flag.Int("maxthreads", 0, "override the sweep maximum (default 2*GOMAXPROCS)")
		bench    = flag.String("bench", "", "ad-hoc benchmark of one algorithm")
		compl    = flag.Bool("compliance", false, "probe every algorithm for ASCY pattern compliance")
		initial  = flag.Int("initial", 1024, "ad-hoc: initial size")
		update   = flag.Int("update", 10, "ad-hoc: update percentage")
		rangePct = flag.Int("rangepct", 0, "ad-hoc: range-scan percentage")
		rangeSp  = flag.Uint64("rangespan", 100, "ad-hoc: keys per range scan")
		seed     = flag.Uint64("seed", 0, "workload seed")
		cpuList  = flag.String("cpu", "", "comma-separated GOMAXPROCS values (e.g. 1,2,4): run the requested experiment(s) once per value — the multi-core scaling axis")
	)
	flag.Parse()

	switch {
	case *list:
		printCatalogue()
		return
	case *compl:
		printCompliance()
		return
	case *bench == "" && *fig == "" && !*all:
		flag.Usage()
		os.Exit(2)
	}

	// runOnce executes the requested experiment(s) at the current
	// GOMAXPROCS; -cpu wraps it into a sweep, one full pass per core count.
	runOnce := func() error {
		if *bench != "" {
			runAdhoc(*bench, *initial, *update, *rangePct, *rangeSp, *threads, *duration, *seed)
			return nil
		}
		opts := harness.Quick(os.Stdout)
		if *paper {
			opts = harness.Paper(os.Stdout)
		}
		if *duration != 0 {
			opts.Duration = *duration
		}
		if *reps != 0 {
			opts.Reps = *reps
		}
		opts.Threads = *threads
		opts.MaxThreads = *maxThr
		opts.Seed = *seed

		if *all {
			harness.RunAll(opts)
			return nil
		}
		return harness.RunExperiment(*fig, opts)
	}

	if *cpuList == "" {
		if err := runOnce(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	cpus, err := parseCPUList(*cpuList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := cpuSweep(cpus, func(c int) error {
		fmt.Printf("=== GOMAXPROCS %d ===\n", c)
		return runOnce()
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseCPUList parses the -cpu flag: comma-separated GOMAXPROCS values.
func parseCPUList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -cpu entry %q (want positive integers, e.g. 1,2,4)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// cpuSweep runs fn once per core count with GOMAXPROCS set to it, and
// restores the previous GOMAXPROCS when the sweep ends or fails. Counts
// above NumCPU still run: the sweep records what the machine delivers
// rather than truncating the axis.
func cpuSweep(cpus []int, fn func(cpus int) error) error {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, c := range cpus {
		if c <= 0 {
			return fmt.Errorf("-cpu: invalid core count %d", c)
		}
		runtime.GOMAXPROCS(c)
		if err := fn(c); err != nil {
			return err
		}
	}
	return nil
}

func printCatalogue() {
	fmt.Println("ASCYLIB-Go algorithm catalogue (paper Table 1 + ASCY variants and new designs)")
	fmt.Println()
	for _, s := range core.Structures() {
		fmt.Printf("%s:\n", s)
		for _, a := range core.ByStructure(s) {
			tag := " "
			if a.ASCY {
				tag = "*"
			}
			safe := ""
			if !a.Safe {
				safe = " [async bound: unsynchronized]"
			}
			fmt.Printf("  %s %-16s %-4s %s%s\n", tag, a.Name, a.Class, a.Desc, safe)
		}
		fmt.Println()
	}
	fmt.Println("* = ASCY-compliant (re-engineered or designed from scratch with the patterns)")
}

func printCompliance() {
	fmt.Println("ASCY compliance probe (concurrent, seeded; see internal/ascy)")
	fmt.Printf("%-16s %6s %6s %16s %18s\n", "algorithm", "ASCY1", "ASCY3", "restarts/update", "coh/succ-update")
	for _, a := range core.All() {
		if !a.Safe {
			continue
		}
		r, err := ascy.CheckRegistered(a.Name, ascy.Probe{})
		if err != nil {
			fmt.Printf("%-16s probe failed: %v\n", a.Name, err)
			continue
		}
		mark := func(b bool) string {
			if b {
				return "yes"
			}
			return "NO"
		}
		fmt.Printf("%-16s %6s %6s %16.4f %18.2f\n",
			a.Name, mark(r.ASCY1), mark(r.ASCY3), r.ParseRestartsPerUpdate, r.CoherencePerSuccUpdate)
	}
	fmt.Println("\nASCY2/ASCY4 are quantitative: compare restarts/update and coh/succ-update against the async baselines.")
}

func runAdhoc(algo string, initial, update, rangePct int, rangeSpan uint64, threads int, duration time.Duration, seed uint64) {
	if threads == 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if duration == 0 {
		duration = time.Second
	}
	cfg := workload.Config{
		Algorithm: algo,
		Options:   []core.Option{core.Capacity(initial)},
		Initial:   initial,
		UpdatePct: update,
		RangePct:  rangePct,
		RangeSpan: rangeSpan,
		Threads:   threads,
		Duration:  duration,
		Seed:      seed,
	}
	res, err := workload.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d elem, %d%% updates, %d%% scans, %d threads, %v\n",
		algo, initial, update, rangePct, threads, duration)
	fmt.Printf("  throughput: %.3f Mops/s (%d ops)\n", res.Mops(), res.Ops)
	fmt.Printf("  successful updates: %d, final size: %d\n", res.SuccUpdates, res.FinalSize)
	fmt.Printf("  coherence events/op: %.2f\n", res.CoherencePerOp())
	if res.RangeOps > 0 {
		fmt.Printf("  range scans: %d (%.1f items/scan)\n", res.RangeOps, res.ItemsPerScan())
	}
}

// printMatrix renders the registry's capability matrix: what each algorithm
// serves natively on the v2 surface and what falls back to the generic
// paths in core.
func printMatrix() {
	fmt.Println("v2 capability matrix (native = implemented in the structure; fallback = generic path in core)")
	fmt.Println()
	fmt.Printf("%-16s %-5s %-5s %-5s %-8s %-9s %-9s %-9s %-9s\n",
		"algorithm", "class", "safe", "ascy", "ordered", "update", "getorins", "range", "wirescan")
	fmt.Println(strings.Repeat("-", 86))
	nf := func(native bool) string {
		if native {
			return "native"
		}
		return "fallback"
	}
	for _, s := range core.Structures() {
		for _, a := range core.ByStructure(s) {
			c := a.Caps()
			yn := func(b bool) string {
				if b {
					return "yes"
				}
				return "-"
			}
			// wirescan is the served cost of an -ordered mrange: a sorted
			// structure enumerates the range in place, anything else pays a
			// snapshot+sort per scan (correct, but O(shard) not O(result)).
			ws := "snapshot"
			if c.NativeRange {
				ws = "native"
			}
			fmt.Printf("%-16s %-5s %-5s %-5s %-8s %-9s %-9s %-9s %-9s\n",
				a.Name, a.Class, yn(a.Safe), yn(a.ASCY), yn(a.Ordered),
				nf(c.NativeUpdate), nf(c.NativeGetOrInsert), nf(c.NativeRange), ws)
		}
	}
	fmt.Println()
	fmt.Println("every algorithm serves the whole surface: ForEach/Size natively (they are core.Set),")
	fmt.Println("Update/GetOrInsert via core.Extend, and Range/Min/Max via core.OrderedOf")
	fmt.Println("(sorted families natively, hash tables by snapshot+sort);")
	fmt.Println("wirescan is how `ascyserve -ordered` serves mrange: in-place traversal vs per-scan snapshot+sort")
}

// describeAlgorithm prints one registry entry in detail.
func describeAlgorithm(name string) error {
	a, ok := core.Get(name)
	if !ok {
		return fmt.Errorf("ascybench: unknown algorithm %q (run `ascybench list`)", name)
	}
	c := a.Caps()
	fmt.Printf("%s\n  %s\n", a.Name, a.Desc)
	fmt.Printf("  structure:  %s\n", a.Structure)
	fmt.Printf("  class:      %s\n", a.Class)
	fmt.Printf("  safe:       %v", a.Safe)
	if !a.Safe {
		fmt.Printf("  (async upper bound: run unsynchronized, deliberately incorrect)")
	}
	fmt.Println()
	fmt.Printf("  ascy:       %v\n", a.ASCY)
	fmt.Printf("  ordered:    %v\n", a.Ordered)
	nf := func(native bool) string {
		if native {
			return "native"
		}
		return "fallback (core.Extend / core.OrderedOf)"
	}
	fmt.Printf("  update:      %s\n", nf(c.NativeUpdate))
	fmt.Printf("  getorinsert: %s\n", nf(c.NativeGetOrInsert))
	fmt.Printf("  range:       %s\n", nf(c.NativeRange))
	if c.NativeRange {
		fmt.Printf("  wire-scan:   native (`ascyserve -ordered` mrange traverses the structure in place)\n")
	} else {
		fmt.Printf("  wire-scan:   snapshot+sort (`ascyserve -ordered` mrange works, but each scan pays O(shard); prefer a sorted structure)\n")
	}
	return nil
}
