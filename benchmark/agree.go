package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// failedShareBound is the absolute amount failed_share may rise; it is the
// one bound BENCHMARK.json cannot carry (see endToEndDefs).
const failedShareBound = 0.0001

// boundedMetric is an end_to_end entry of BENCHMARK.json.
type boundedMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictWorse      = "WORSE"
	verdictBetter     = "BETTER"
	verdictUnresolved = "UNRESOLVED"
)

// side summarises one result set's values of one metric.
type side struct {
	n              int
	median, q1, q3 float64
}

func summarise(v []float64) side {
	s := side{n: len(v), median: median(v)}
	if len(v) >= 2 {
		s.q1, s.q3 = quartiles(v)
	}
	return s
}

// spread is the interquartile range as a share of the median.
func (s side) spread() float64 { return ratio(s.q3-s.q1, s.median) }

// judge applies the agreement rule. A side whose own spread exceeds the
// bound cannot resolve a difference of that size, so the metric is
// unresolved; otherwise b agrees with a when its median is within the bound
// of a's, in either direction.
func judge(m boundedMetric, a, b side) string {
	if a.n < 2 || b.n < 2 || a.spread() > m.Bound || b.spread() > m.Bound {
		return verdictUnresolved
	}
	change := ratio(b.median-a.median, a.median)
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return verdictWorse
	case change < -m.Bound:
		return verdictBetter
	}
	return verdictOK
}

func loadResults(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// agreeFiles compares result sets a and b metric by metric and returns the
// process exit code: 0 when every end-to-end metric of every workload
// agrees.
func agreeFiles(w io.Writer, contract, pathA, pathB string) int {
	var spec struct {
		EndToEnd []boundedMetric `json:"end_to_end"`
	}
	raw, err := os.ReadFile(contract)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	ra, errA := loadResults(pathA)
	rb, errB := loadResults(pathB)
	for _, e := range []error{err, errA, errB} {
		if e != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", e)
			return 2
		}
	}
	if len(ra) > 0 && len(rb) > 0 {
		if ea, eb := ra[0].Env, rb[0].Env; ea.NProc != eb.NProc || ea.GoVersion != eb.GoVersion || ea.WindowSeconds != eb.WindowSeconds {
			fmt.Fprintf(w, "note: environments differ: %+v vs %+v\n", ea, eb)
		}
	}
	disagreements := 0
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			a := summarise(values(ra, wl.name, m.Name))
			b := summarise(values(rb, wl.name, m.Name))
			v := judge(m, a, b)
			if v != verdictOK {
				disagreements++
			}
			fmt.Fprintf(w, "%-10s %-14s a: %12.4f [%12.4f %12.4f] n=%-2d  b: %12.4f [%12.4f %12.4f] n=%-2d  bound %4.1f%%  %s\n",
				wl.name, m.Name, a.median, a.q1, a.q3, a.n, b.median, b.q1, b.q3, b.n, 100*m.Bound, v)
		}
		fa, fb := median(values(ra, wl.name, "failed_share")), median(values(rb, wl.name, "failed_share"))
		v := verdictOK
		if fb > fa+failedShareBound {
			v = verdictWorse
			disagreements++
		}
		fmt.Fprintf(w, "%-10s %-14s a: %12.6f  b: %12.6f  bound +%g  %s\n", wl.name, "failed_share", fa, fb, failedShareBound, v)
	}
	if disagreements > 0 {
		fmt.Fprintf(w, "%d metric(s) disagree or are unresolved\n", disagreements)
		return 1
	}
	return 0
}

// values collects one metric of one workload from the untraced runs of a
// result set.
func values(rs []*result, workload, metric string) []float64 {
	var v []float64
	for _, r := range rs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if metric == "failed_share" {
			v = append(v, r.failedShare())
		} else {
			v = append(v, r.EndToEnd[metric])
		}
	}
	return v
}
