// Package stats provides the counter, rate and summary primitives shared by
// every simulator component, plus the small numeric helpers (geometric mean,
// MPKI) the experiment harness uses to report results the way the paper does.
//
// # Canonical accumulation order
//
// Every float aggregate in this package — Mean, GeoMean/GeoMeanSkipped,
// RunningMean — is a strict left-to-right fold over the caller-supplied
// order, with no pairwise, sorted or compensated (Kahan) summation.
// Floating-point addition is not associative, so the order is part of each
// helper's contract: the golden experiment tables, the benchreg metrics
// digest and the simulator's pinned-digest test all compare results bit
// for bit, and a reordered accumulation produces a different
// last bit (see order_test.go for a pinned demonstration). Changing the
// accumulation strategy is a behaviour change that requires regenerating
// goldens — not a refactor. Callers, in turn, must feed observations in a
// deterministic order; the simulator's single-threaded run loop guarantees
// this by construction.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Counter is a monotonically increasing event count. It is a plain uint64
// with methods so that component structs read as self-documenting stat
// blocks; simulation is single-goroutine per system, so no atomics.
type Counter uint64

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { *c++ }

// Value returns the current count.
func (c Counter) Value() uint64 { return uint64(c) }

// Ratio returns c divided by total, or 0 when total is zero.
func Ratio(c, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(c) / float64(total)
}

// MPKI returns misses per kilo-instruction, the paper's unit for TLB and
// cache miss rates (Figures 1, 10, 11).
func MPKI(misses, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(misses) * 1000 / float64(instructions)
}

// GeoMean returns the geometric mean of xs, skipping non-positive entries
// (which would otherwise poison the product). The paper reports all
// cross-workload aggregates as geometric means. Callers that must not hide
// dropped workloads should use GeoMeanSkipped and surface the count.
func GeoMean(xs []float64) float64 {
	g, _ := GeoMeanSkipped(xs)
	return g
}

// GeoMeanSkipped is GeoMean, additionally reporting how many non-positive
// entries were dropped from the aggregate. A non-zero skip count means the
// mean summarises fewer workloads than the caller supplied — experiment
// tables flag it so a degenerate run cannot silently vanish into an
// aggregate row.
//
// The mean is computed as Exp of the left-to-right sum of Log(x) divided
// by the retained count — the package's canonical accumulation order (see
// the package comment); permuting xs can flip the result's last bit.
func GeoMeanSkipped(xs []float64) (mean float64, skipped int) {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	skipped = len(xs) - n
	if n == 0 {
		return 0, skipped
	}
	return math.Exp(sum / float64(n)), skipped
}

// Mean returns the arithmetic mean of xs (0 for an empty slice), summed
// left to right in the caller's order (see the package comment).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// HitRate summarises a hit/miss pair.
type HitRate struct {
	Hits   Counter
	Misses Counter
}

// Hit records a hit.
func (h *HitRate) Hit() { h.Hits.Inc() }

// Miss records a miss.
func (h *HitRate) Miss() { h.Misses.Inc() }

// Accesses returns hits+misses.
func (h HitRate) Accesses() uint64 { return h.Hits.Value() + h.Misses.Value() }

// Rate returns hits/(hits+misses), or 0 with no accesses.
func (h HitRate) Rate() float64 { return Ratio(h.Hits.Value(), h.Accesses()) }

// MissRate returns misses/(hits+misses), or 0 with no accesses.
func (h HitRate) MissRate() float64 { return Ratio(h.Misses.Value(), h.Accesses()) }

// Reset zeroes both counters.
func (h *HitRate) Reset() { h.Hits, h.Misses = 0, 0 }

// RunningMean tracks a streaming arithmetic mean without storing samples,
// used for per-event latency averages (e.g. page-walk cycles per L2 TLB
// miss in Table 1). The sum folds observations in arrival order, so it is
// bit-identical to Mean over the same samples in the same order — the
// canonical accumulation order (see the package comment). Observation
// order is therefore part of the simulator's determinism contract.
type RunningMean struct {
	n   uint64
	sum float64
}

// Observe adds one sample.
func (r *RunningMean) Observe(x float64) {
	r.n++
	r.sum += x
}

// N returns the number of samples observed.
func (r *RunningMean) N() uint64 { return r.n }

// Mean returns the current mean (0 with no samples).
func (r *RunningMean) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Reset forgets all samples.
func (r *RunningMean) Reset() { r.n, r.sum = 0, 0 }

// Log2Histogram is a power-of-two-bucketed histogram over uint64 samples:
// bucket 0 counts zeros and bucket i (i >= 1) counts samples in
// [2^(i-1), 2^i). It needs no bound configuration, covers the full uint64
// range, and is a plain value type, so stat blocks that are reset by struct
// re-assignment (walker.Stats, dram.Stats) can embed it directly. The
// observability layer exports it for distribution-style metrics — page-walk
// latency and DRAM queueing delay.
type Log2Histogram struct {
	counts [65]uint64
	total  uint64
	sum    uint64
}

// Observe adds one sample.
func (h *Log2Histogram) Observe(x uint64) {
	h.counts[bits.Len64(x)]++
	h.total++
	h.sum += x
}

// Total returns the number of samples observed.
func (h *Log2Histogram) Total() uint64 { return h.total }

// Sum returns the sum of all samples.
func (h *Log2Histogram) Sum() uint64 { return h.sum }

// Mean returns the arithmetic mean of the samples (0 with none).
func (h *Log2Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Bucket returns the count of bucket i in [0, 65).
func (h *Log2Histogram) Bucket(i int) uint64 { return h.counts[i] }

// BucketBounds returns the half-open range [lo, hi) of bucket i; bucket 0
// is the exact value 0 (returned as [0, 1)), and the top bucket's hi
// saturates at MaxUint64.
func BucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 1
	}
	lo = uint64(1) << (i - 1)
	if i >= 64 {
		return lo, math.MaxUint64
	}
	return lo, uint64(1) << i
}

// Nonzero visits every non-empty bucket in ascending order.
func (h *Log2Histogram) Nonzero(visit func(i int, lo, hi, count uint64)) {
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		visit(i, lo, hi, c)
	}
}

// String renders the non-empty buckets compactly for debugging.
func (h *Log2Histogram) String() string {
	s := ""
	h.Nonzero(func(_ int, lo, hi, count uint64) {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("[%d,%d):%d", lo, hi, count)
	})
	if s == "" {
		return "(empty)"
	}
	return s
}
