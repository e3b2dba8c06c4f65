package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// dist is a timing distribution: every percentile is printed with the
// sample count it came from, so a reader can tell a p95 over 2000 gaps
// from a p95 over 12.
type dist struct {
	N                  int
	P50, P90, P95, P99 float64 // milliseconds
}

// percentile is the nearest-rank percentile of an ascending slice:
// the smallest sample with at least p percent of the samples at or
// below it. Empty input reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func summarize(samples []time.Duration) dist {
	ms := make([]float64, len(samples))
	for i, d := range samples {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return dist{
		N:   len(ms),
		P50: percentile(ms, 50), P90: percentile(ms, 90),
		P95: percentile(ms, 95), P99: percentile(ms, 99),
	}
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles taken as Python's
// statistics.quantiles(values, n=4) takes them (the exclusive method) —
// the rule the acceptance check applies to ten runs.
func quartileSpread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssBytes reads the resident set size from /proc/self/statm.
func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// rssSampler tracks the peak resident set over a measured window.
type rssSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak int64
}

func startRSSSampler(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: rssBytes()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if v := rssBytes(); v > s.peak {
					s.peak = v
				}
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak in bytes.
func (s *rssSampler) Stop() int64 {
	close(s.stop)
	s.wg.Wait()
	if v := rssBytes(); v > s.peak {
		s.peak = v
	}
	return s.peak
}
