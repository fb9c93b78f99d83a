// The histogram half of the observability core: fixed-bucket,
// Prometheus-shaped, and entirely atomic. The control plane's old /metrics
// surface exported totals (jobs completed, steps observed) — enough to
// plot throughput, useless for "how long does a checkpoint write take at
// the p99". A Histogram keeps the full distribution at fixed cost: one
// atomic add into the right bucket, one atomic add on the count, one CAS
// loop folding the value into the float sum. Observe is safe from any
// goroutine — including the runner's hot step loop — with no lock and no
// allocation.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram exposed in the Prometheus text
// format: cumulative `_bucket{le="…"}` samples, `_sum` and `_count`.
// Construct with NewHistogram; the bucket layout is immutable afterwards
// (Prometheus requires a stable series set across scrapes).
type Histogram struct {
	name, help string
	upper      []float64 // sorted upper bounds; +Inf is implicit
	counts     []atomic.Int64
	count      atomic.Int64
	sumBits    atomic.Uint64 // float64 bits, CAS-updated
}

// DurationBuckets is the shared bucket layout for the daemon's latency
// families: 100 µs to 5 minutes in roughly ×2.5 steps, wide enough that
// one layout serves per-step durations (sub-millisecond on small grids),
// checkpoint writes (milliseconds), dispatch latencies (construction can
// take seconds) and queue waits (minutes on a saturated daemon).
func DurationBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
	}
}

// NewHistogram builds a histogram with the given sorted bucket upper
// bounds (the +Inf bucket is implicit and always present). Unsorted input
// is sorted; duplicate bounds are collapsed.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	dedup := upper[:0]
	for _, b := range upper {
		if math.IsInf(b, +1) {
			continue // +Inf is implicit
		}
		if len(dedup) == 0 || b > dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	upper = dedup
	return &Histogram{
		name:   name,
		help:   help,
		upper:  upper,
		counts: make([]atomic.Int64, len(upper)+1), // +1: the +Inf bucket
	}
}

// Observe records one value. Safe for concurrent use from any goroutine;
// no locks, no allocation.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bucket whose upper bound holds v; the
	// +Inf bucket (index len(upper)) catches everything past the last
	// bound. NaN observations are dropped — Prometheus has no bucket for
	// them and a poisoned sum would break every rate() over the family.
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds — the unit every *_seconds
// family exports.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values so far.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// WriteProm writes the family in the Prometheus text exposition format
// (v0.0.4): # HELP, # TYPE histogram, cumulative _bucket samples ending in
// le="+Inf", then _sum and _count. Buckets are read newest-first so the
// cumulative counts are monotone within one exposition even while Observe
// runs concurrently; _count is taken from the +Inf bucket, which the
// format requires to equal it.
func (h *Histogram) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	// Snapshot the per-bucket counters once, then emit cumulatively: a
	// concurrent Observe between bucket reads could otherwise make the
	// running sum dip, which some scrapers reject.
	snap := make([]int64, len(h.counts))
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
	}
	cum := int64(0)
	for i, ub := range h.upper {
		cum += snap[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatBound(ub), cum)
	}
	cum += snap[len(snap)-1]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", h.name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", h.name, cum)
}

// formatBound renders a bucket bound the way Prometheus conventionally
// writes them: shortest round-trip decimal ("0.005", not "5e-03").
func formatBound(b float64) string {
	return fmt.Sprintf("%v", b)
}
