// Package stats provides the latency accounting used by the benchmark
// harness: per-worker sample recorders and the 1/25/50/75/99 percentile
// summaries that the paper's latency-distribution figures report
// (Figures 4d, 5d, 6d, 7d).
package stats

import (
	"fmt"
	"sort"
)

// Percentiles reported throughout the paper's distribution plots.
var PaperPercentiles = []float64{1, 25, 50, 75, 99}

// Recorder collects latency samples (nanoseconds) for one worker. Not
// goroutine-safe; merge after the run.
type Recorder struct {
	samples []int64
}

// Add records one sample.
func (r *Recorder) Add(ns int64) {
	r.samples = append(r.samples, ns)
}

// Merge appends other's samples.
func (r *Recorder) Merge(other *Recorder) {
	r.samples = append(r.samples, other.samples...)
}

// Count returns the number of recorded samples.
func (r *Recorder) Count() int { return len(r.samples) }

// Summary is a digested latency distribution.
type Summary struct {
	N           int
	MeanNS      float64
	Percentiles map[float64]int64 // percentile -> ns
}

// Summarize digests the samples into the paper's percentiles plus the mean.
// Returns a zero summary when no samples were recorded.
func (r *Recorder) Summarize() Summary {
	s := Summary{N: len(r.samples), Percentiles: map[float64]int64{}}
	if s.N == 0 {
		return s
	}
	sorted := make([]int64, s.N)
	copy(sorted, r.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	s.MeanNS = float64(sum) / float64(s.N)
	for _, p := range PaperPercentiles {
		s.Percentiles[p] = quantile(sorted, p/100)
	}
	return s
}

// SummarizeInts digests an arbitrary sample slice (e.g. perf parse samples).
func SummarizeInts(samples []int64) Summary {
	r := Recorder{samples: samples}
	return r.Summarize()
}

// quantile returns the q-quantile (0..1) of sorted data by nearest-rank.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// String renders the summary as the paper's 1/25/50/75/99 row.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.0fns p1/25/50/75/99=%d/%d/%d/%d/%dns",
		s.N, s.MeanNS,
		s.Percentiles[1], s.Percentiles[25], s.Percentiles[50],
		s.Percentiles[75], s.Percentiles[99])
}

// Median returns the middle element of values (by sorted order); used for
// the paper's "median of 11 repetitions" protocol.
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}
