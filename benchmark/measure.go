package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) does, so
// -agree judges spread by the rule the driver uses. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := max(1, min(n-1, i*(n+1)/4))
		d := i*(n+1) - j*4 // after the clamp, as Python does: small sets extrapolate
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the nearest-rank q-quantile of ascending samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	} else if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat. Linux
// fixes it at 100 on every architecture Go runs on.
const clockTick = 100

// parseStatCPU extracts user+system CPU seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := bytes.Fields(stat[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	utime, err1 := strconv.ParseUint(string(f[11]), 10, 64) // field 14
	stime, err2 := strconv.ParseUint(string(f[12]), 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(utime+stime) / clockTick, nil
}

// parseStatusKB extracts a "<field>:   <n> kB" value from the contents of
// /proc/<pid>/status.
func parseStatusKB(status []byte, field string) (uint64, error) {
	for _, line := range bytes.Split(status, []byte{'\n'}) {
		name, rest, ok := bytes.Cut(line, []byte{':'})
		if !ok || string(name) != field {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			break
		}
		return strconv.ParseUint(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s in kB", field)
}

// procCPU returns the CPU seconds pid has consumed so far.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procPeakRSS returns pid's resident-set high-water mark in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, "VmHWM")
	return float64(kb) / 1024, err
}
