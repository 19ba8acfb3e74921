package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 7}, 5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are statistics.quantiles(v, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 12}, 2, 11},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{1.5, 2.5, 2.5, 2.75, 3.25, 4.75}, 2.25, 3.625},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for q, want := range map[float64]int64{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000, 0: 1} {
		if got := percentile(s, q); got != want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", q, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 || percentile([]int64{7}, 0.99) != 7 {
		t.Error("percentile of an empty or single sample")
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := []byte("4242 (ascy (serve) x) S 1 4242 4242 0 -1 4194560 5021 0 3 0 1234 766 0 0 20 0 9 0 8913 1291 \n")
	got, err := parseStatCPU(stat)
	if err != nil || !near(got, 20.00) {
		t.Errorf("parseStatCPU = %v, %v; want 20s", got, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 u s"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := []byte("Name:\tascyserve\nVmPeak:\t 1234567 kB\nVmHWM:\t   52224 kB\nVmRSS:\t   40000 kB\n")
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil || got != 52224 {
		t.Errorf("parseStatusKB = %d, %v", got, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing field parsed")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 pages\n"), "VmHWM"); err == nil {
		t.Error("a value not in kB parsed")
	}
}
