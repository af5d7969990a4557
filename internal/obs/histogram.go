package obs

import (
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram safe for concurrent
// Observe calls, rendered by Family.Histogram in the Prometheus text
// exposition format (cumulative `_bucket` series with an le label, plus
// `_sum` and `_count`). Bounds are upper bucket edges in seconds; an
// implicit +Inf bucket catches the tail.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sum    atomic.Int64    // nanoseconds
}

// LatencyBuckets is the default bucket layout for pipeline-stage and HTTP
// request latencies: 10µs to 10s, roughly logarithmic.
func LatencyBuckets() []float64 {
	return []float64{
		1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// NewHistogram builds a histogram over the given upper bounds (seconds),
// which must be strictly increasing and nonempty.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	secs := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, secs) // first bound >= secs (le semantics)
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the upper bucket edges in seconds (excluding +Inf).
	Bounds []float64
	// Cumulative[i] counts samples <= Bounds[i]; the final element is the
	// +Inf bucket and equals Count.
	Cumulative []uint64
	Count      uint64
	SumSeconds float64
}

// Snapshot copies the current counts. Concurrent Observe calls may land
// between bucket reads; the snapshot is still internally monotone.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: append([]float64(nil), h.bounds...)}
	s.Cumulative = make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		s.Cumulative[i] = running
	}
	s.Count = running
	s.SumSeconds = float64(h.sum.Load()) / float64(time.Second)
	return s
}

// Quantile estimates the q-quantile (in seconds) from the snapshot's
// cumulative bucket counts: find the bucket the target rank falls in and
// interpolate linearly across it. Samples beyond the last finite bound
// clamp to that bound — the honest answer a bounded histogram can give.
// 0 when the snapshot is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if len(s.Cumulative) == 0 || len(s.Bounds) == 0 {
		return 0
	}
	total := s.Cumulative[len(s.Cumulative)-1]
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	for i, c := range s.Cumulative {
		if float64(c) < target {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1] // +Inf bucket: clamp
		}
		lo := 0.0
		var below uint64
		if i > 0 {
			lo = s.Bounds[i-1]
			below = s.Cumulative[i-1]
		}
		inBucket := c - below
		if inBucket == 0 {
			return s.Bounds[i]
		}
		frac := (target - float64(below)) / float64(inBucket)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo + frac*(s.Bounds[i]-lo)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// formatLe renders a bucket bound the way Prometheus clients do.
func formatLe(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }
