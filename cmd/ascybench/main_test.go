package main

import (
	"runtime"
	"testing"
)

// TestCPUSweepSetsGOMAXPROCS: the -cpu sweep must run each entry at its own
// GOMAXPROCS, restore the previous setting afterwards, and reject counts
// below one.
func TestCPUSweepSetsGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	var seen []int
	if err := cpuSweep([]int{1, 2, 3}, func(c int) error {
		if got := runtime.GOMAXPROCS(0); got != c {
			t.Errorf("sweep entry %d ran at GOMAXPROCS %d", c, got)
		}
		seen = append(seen, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("sweep ran %d entries, want 3", len(seen))
	}
	if got := runtime.GOMAXPROCS(0); got != prev {
		t.Fatalf("GOMAXPROCS left at %d after sweep, want restored %d", got, prev)
	}
	if err := cpuSweep([]int{0}, func(int) error { return nil }); err == nil {
		t.Fatal("sweep accepted cpu count 0")
	}
	if got := runtime.GOMAXPROCS(0); got != prev {
		t.Fatalf("GOMAXPROCS left at %d after a rejected sweep, want %d", got, prev)
	}
}
