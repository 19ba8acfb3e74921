// Command benchmark is the repository's benchmark: five fixed workloads,
// six bounded end-to-end metrics plus failed_share, and an outside-in ladder
// of per-layer metrics. README.md in this directory is the manual;
// BENCHMARK.json at the repository root is the contract it is run under.
//
// The directory is a module of its own (repro/benchmark, replacing repro
// with the tree around it), so it is run from inside; whatever the working
// directory, paths are relative to the repository root:
//
//	go run -C benchmark . -workload all -seed 1              # end-to-end metrics
//	go run -C benchmark . -workload wire-get -trace 1        # the layer ladder
//	go run -C benchmark . -repeat 10 -out benchmark/out/a    # a result set
//	go run -C benchmark . -agree a/results.json b/results.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs; run i of -repeat uses seed+i")
		seconds = flag.Int("seconds", 16, "measured seconds per run, split into 8 windows (the comparable setting is the default)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run and the layer ladder")
		repeat  = flag.Int("repeat", 1, "run the set this many times")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for results.json and trace files (empty: write none)")
		agree   = flag.Bool("agree", false, "compare two results.json files (arguments) against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if err := chdirToRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -agree takes two results.json files")
			return 2
		}
		return agreeFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}
	var set []*workload
	if *name == "all" {
		set = workloads
	} else if wl := findWorkload(*name); wl != nil {
		set = []*workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < numWindows || *trace < 0 || *trace > 1 || *repeat < 1 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: need -seconds >= %d, -trace 0|1, -repeat >= 1 and no arguments\n", numWindows)
		return 2
	}

	// SIGINT/SIGTERM cancel the context, which kills the server subprocess;
	// the deferred clean-ups then remove everything the run created.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The server is built from the tree once per invocation, into a scratch
	// directory that goes away with it.
	dir, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{
		window:    time.Duration(*seconds) * time.Second / numWindows,
		traced:    *trace == 1,
		serverBin: filepath.Join(dir, "ascyserve"),
		outDir:    *outDir,
	}
	build := exec.CommandContext(ctx, "go", "build", "-o", cfg.serverBin, "./cmd/ascyserve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: building ascyserve:", err)
		return 1
	}

	var results []*result
	status := 0
runs:
	for i := 0; i < *repeat; i++ {
		for _, wl := range set {
			res, err := runOne(ctx, cfg, wl, *seed+uint64(i))
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				status = 1
				break runs
			}
			results = append(results, res)
			res.print(os.Stdout)
			fmt.Println(res.contractLine())
		}
	}
	if cfg.outDir != "" && len(results) > 0 {
		if err := writeJSON(filepath.Join(cfg.outDir, "results.json"), results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return max(status, exitStatus(results))
}

// chdirToRoot makes the repository root — the nearest directory at or above
// the working directory that holds BENCHMARK.json — the working directory,
// so that ./cmd/ascyserve and benchmark/out mean the same
// thing under `go run -C benchmark .` as under run.sh.
func chdirToRoot() error {
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return os.Chdir(dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return errors.New("no BENCHMARK.json at or above the working directory: run inside the repository")
		}
		dir = parent
	}
}

// exitStatus is non-zero when the oracle saw a wrong answer in any run.
func exitStatus(results []*result) int {
	for _, r := range results {
		if !r.correct() {
			return 1
		}
	}
	return 0
}
