package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// sample is one request's latency. Failed requests rank above every
// success when percentiles are taken, whatever their own latency: a
// request that failed or was refused misses any latency limit.
type sample struct {
	ns     int64
	at     int64 // arrival, ns since the phase started
	failed bool
}

// dist is a set of raw latency samples.
type dist []sample

func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].failed != s[j].failed {
			return !s[i].failed
		}
		return s[i].ns < s[j].ns
	})
	return s
}

// quantile returns the q-quantile (nearest rank) of d in nanoseconds and
// how many samples rank strictly above it. A quantile that lands on a
// failed request reports that request's own latency.
func (d dist) quantile(q float64) (ns int64, beyond int) {
	if len(d) == 0 {
		return 0, 0
	}
	s := d.sorted()
	r := int(math.Ceil(q*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	return s[r].ns, len(s) - 1 - r
}

// slicedQuantile splits d by arrival into k = len(d)/perSlice (at most
// maxSlices) equal time slices of the phase and returns the median of the
// slices' q-quantiles, with each slice's value. On a shared host a few
// seconds of stalled CPU move one slice's tail, not the median across
// slices.
func (d dist) slicedQuantile(q float64, perSlice, maxSlices int) (ns int64, slices []int64) {
	k := min(maxSlices, len(d)/perSlice)
	if k <= 1 {
		v, _ := d.quantile(q)
		return v, []int64{v}
	}
	var last int64
	for _, s := range d {
		last = max(last, s.at)
	}
	parts := make([]dist, k)
	for _, s := range d {
		i := int(s.at * int64(k) / (last + 1))
		parts[i] = append(parts[i], s)
	}
	vals := make([]float64, 0, k)
	for _, p := range parts {
		v, _ := p.quantile(q)
		slices = append(slices, v)
		vals = append(vals, float64(v))
	}
	return int64(median(vals)), slices
}

// ints is a set of raw integer or duration samples without failures.
type ints []int64

func (v ints) quantile(q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append(ints(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	r := int(math.Ceil(q*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	return s[r]
}

func (v ints) mean() float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

func (v ints) max() int64 {
	var m int64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// host is the fingerprint recorded with every result.
func host() string {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	kernel := "unknown"
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(raw))
	}
	return fmt.Sprintf("NumCPU=%d GOMAXPROCS=%d cpu=%q go=%s kernel=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), kernel)
}
