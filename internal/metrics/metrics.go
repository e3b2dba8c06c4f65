// Package metrics provides the lightweight counters, gauges and
// histograms shared by every tier of the pipeline (Scribe, ETL, storage,
// readers, trainers). It exists so tiers can account their work without
// importing each other: a Counter is one atomic word, and a Histogram
// records into fixed pre-sized buckets so observation never allocates on
// a hot path. All types are safe for concurrent use — sessions and
// connections record from many goroutines at once.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value — a level, not a count:
// currently active sessions, open connections, resident cache bytes.
// Unlike Counter it may move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram over int64 observations, used for
// the samples-per-session distributions (paper Fig 3).
type Histogram struct {
	mu      sync.Mutex
	bounds  []int64 // bucket i counts v <= bounds[i]; last bucket unbounded
	counts  []int64
	total   int64
	sum     int64
	maxSeen int64
}

// NewHistogram builds a histogram with the given ascending upper bounds. A
// final overflow bucket is added automatically.
func NewHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.total++
	h.sum += v
	if v > h.maxSeen {
		h.maxSeen = v
	}
}

// Mean returns the mean observed value.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the largest observed value.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.maxSeen
}

// Buckets returns (label, count) pairs for rendering.
func (h *Histogram) Buckets() []Bucket {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Bucket, 0, len(h.counts))
	lo := int64(1)
	for i, c := range h.counts {
		var label string
		if i < len(h.bounds) {
			if lo == h.bounds[i] {
				label = fmt.Sprintf("%d", lo)
			} else {
				label = fmt.Sprintf("%d-%d", lo, h.bounds[i])
			}
			lo = h.bounds[i] + 1
		} else {
			label = fmt.Sprintf(">%d", lo-1)
		}
		out = append(out, Bucket{Label: label, Count: c})
	}
	return out
}

// Bucket is one rendered histogram bucket.
type Bucket struct {
	Label string
	Count int64
}

// ByteCounter tracks bytes in/out for a pipeline component.
type ByteCounter struct {
	RX Counter
	TX Counter
}

// String renders the counter compactly.
func (b *ByteCounter) String() string {
	return fmt.Sprintf("rx=%s tx=%s", FormatBytes(b.RX.Value()), FormatBytes(b.TX.Value()))
}

// FormatBytes renders a byte count with a binary suffix.
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.2f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
