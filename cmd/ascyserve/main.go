// Command ascyserve serves an ASCY-backed store over the memcached text
// protocol. Any registered algorithm can front the wire, so the whole
// capability matrix is servable:
//
//	ascyserve                                  # CLHT-LB on :11211
//	ascyserve -algo ht-clht-lf -addr :11300
//	ascyserve -algo sl-fraser-opt              # a skip list speaking memcached
//	ascyserve -algo ll-lazy -shards 8          # keyspace split over 8 lazy lists
//	ascyserve -addr 127.0.0.1:0 -addrfile /tmp/a.addr   # ephemeral port for scripts
//
// The server speaks get/gets (multi-key), set/add/replace/cas, delete,
// incr/decr, stats, version, flush_all, and quit, with per-connection
// buffering and request pipelining. Drive it with any memcached client, or
// measure it with the repo's benchmark (benchmark/run.sh), which boots
// ascyserve itself and checks every response byte.
//
// On SIGINT/SIGTERM the server drains connections and prints its stats.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":11211", "listen address (port 0 picks an ephemeral port)")
		algo     = flag.String("algo", "ht-clht-lb", "backing algorithm (see `ascybench list`)")
		capacity = flag.Int("capacity", 1<<16, "structure capacity (hash-table buckets, total across shards)")
		shards   = flag.Int("shards", 1, "partition the keyspace across this many independent structure instances")
		ordered  = flag.Bool("ordered", false, "order-preserving keyspace: serve mrange/mmin/mmax (lexicographic scans); shards become contiguous key ranges (best with a sorted structure, e.g. -algo sl-fraser-opt)")
		maxItem  = flag.Int("maxitem", server.DefaultMaxItemSize, "maximum value size in bytes (with -snapshot, at most what one snapshot record holds: just under 64 MiB)")
		maxBatch = flag.Int("maxbatch", server.DefaultMaxBatch, "max pipelined requests executed per store pin (1 disables batching)")
		idle     = flag.Duration("idletimeout", 0, "reclaim connections silent for this long (0 = server default of 5m, negative disables)")
		maxconns = flag.Int("maxconns", 0, "cap concurrently open connections; extra dialers get SERVER_ERROR busy and are closed (0 = unlimited)")
		drain    = flag.Duration("drain", 5*time.Second, "on SIGINT/SIGTERM, let in-flight pipelined work finish for up to this long before closing (0 closes immediately)")
		snapPath = flag.String("snapshot", "", "snapshot file path: load on boot (warm restart), snapshot on drain and on the msnap verb, and — with -snapshotinterval — in the background; crash-safe (temp+fsync+rename)")
		snapIntv = flag.Duration("snapshotinterval", 0, "background snapshot period (0 disables the ticker; requires -snapshot)")
		panicKey = flag.String("chaospanickey", "", "chaos harness: a get of exactly this key panics the handler, exercising per-connection panic isolation (never set in production)")
		addrFile = flag.String("addrfile", "", "write the bound address to this file (for scripts)")
		quiet    = flag.Bool("quiet", false, "suppress the startup banner and shutdown stats")
	)
	flag.Parse()

	if _, ok := core.Get(*algo); !ok {
		fmt.Fprintf(os.Stderr, "ascyserve: unknown algorithm %q; pick one of:\n", *algo)
		for _, a := range core.All() {
			if a.Safe {
				fmt.Fprintf(os.Stderr, "  %s\n", a.Name)
			}
		}
		os.Exit(2)
	}

	s, err := server.New(server.Config{
		Addr:             *addr,
		Algo:             *algo,
		Capacity:         *capacity,
		Shards:           *shards,
		Ordered:          *ordered,
		MaxItemSize:      *maxItem,
		MaxBatch:         *maxBatch,
		IdleTimeout:      *idle,
		MaxConns:         *maxconns,
		ChaosPanicKey:    *panicKey,
		SnapshotPath:     *snapPath,
		SnapshotInterval: *snapIntv,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ascyserve:", err)
		os.Exit(1)
	}
	if err := s.Listen(); err != nil {
		fmt.Fprintln(os.Stderr, "ascyserve:", err)
		os.Exit(1)
	}
	if !*quiet {
		extra := ""
		if *ordered {
			extra = ", ordered"
		}
		fmt.Printf("ascyserve: %s serving %s (%d shard(s)%s) on %s\n", server.Version, *algo, s.Store().Shards(), extra, s.Addr())
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(s.Addr().String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ascyserve:", err)
			s.Close()
			os.Exit(1)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "ascyserve:", err)
			os.Exit(1)
		}
	case <-sig:
		// Drain: stop accepting, let in-flight pipelined batches finish
		// within the budget, then close whatever remains. A second signal
		// during the drain closes immediately.
		if *drain > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			go func() {
				<-sig
				cancel()
			}()
			s.Shutdown(ctx)
			cancel()
		} else {
			s.Close()
		}
		<-done
	}
	// The final stats line (stderr, -quiet included) is emitted by the
	// server itself on Close — see Server.emitFinalStats — so embedded and
	// test users get the same last word a chaos harness greps for here.
	if !*quiet {
		fmt.Println("ascyserve: shutdown stats:")
		for _, kv := range s.Stats() {
			fmt.Printf("  %-18s %s\n", kv[0], kv[1])
		}
	}
}
