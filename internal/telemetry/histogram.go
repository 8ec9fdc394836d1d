package telemetry

import (
	"math"
	"sort"
)

// TimeBuckets is the default latency bucket ladder, in seconds: roughly
// exponential from 100µs to 60s. It brackets everything the engine times —
// sub-millisecond cache probes, millisecond solves, and multi-second
// portfolio escalations.
var TimeBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 30, 60,
}

// CountBuckets is the default ladder for count-valued observations
// (conflicts per check, clauses per check): powers of four from 1 to ~4M.
// Most Lightyear checks decide with zero conflicts, so the ladder spends
// its resolution on the heavy tail where the interesting solves live.
var CountBuckets = []float64{
	1, 4, 16, 64, 256,
	1024, 4096, 16384, 65536,
	262144, 1048576, 4194304,
}

// ExponentialBuckets returns n bucket upper bounds starting at start and
// multiplying by factor, for callers that need a custom ladder.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, 0, n)
	for v := start; len(out) < n; v *= factor {
		out = append(out, v)
	}
	return out
}

// HistogramVec is a family of fixed-bucket histograms partitioned by label
// values. Observations are lock-free: one atomic add on the bucket counter,
// one on the observation count, and a CAS loop on the float64-bits sum.
type HistogramVec struct{ m *metric }

// Histogram registers (or fetches) a histogram family with the given
// bucket upper bounds (nil selects TimeBuckets). Bounds must be sorted
// ascending; the +Inf bucket is implicit.
func (r *Recorder) Histogram(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = TimeBuckets
	}
	return &HistogramVec{m: r.register(name, help, kindHistogram, labelNames, buckets)}
}

// With resolves the histogram for one label-value combination. Handles are
// cheap to cache and safe for concurrent use.
func (hv *HistogramVec) With(values ...string) *Histogram {
	if hv == nil {
		return nil
	}
	return &Histogram{s: hv.m.with(values), buckets: hv.m.buckets}
}

// Histogram is a handle on a single fixed-bucket series. Bucket semantics
// follow Prometheus: an observation v lands in the first bucket with
// v <= upper bound, else in +Inf.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.buckets, v) // first bound >= v, i.e. v <= bound
	if idx < len(h.s.bucketCounts) {
		h.s.bucketCounts[idx].Add(1)
	} else {
		h.s.infCount.Add(1)
	}
	h.s.count.Add(1)
	for {
		old := h.s.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.s.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.s.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.s.sumBits.Load())
}

// Count returns the total observations across all series in the family.
func (hv *HistogramVec) Count() uint64 {
	if hv == nil {
		return 0
	}
	var total uint64
	hv.m.mu.RLock()
	for _, s := range hv.m.series {
		total += s.count.Load()
	}
	hv.m.mu.RUnlock()
	return total
}

// Sum returns the total of observed values across all series.
func (hv *HistogramVec) Sum() float64 {
	if hv == nil {
		return 0
	}
	var total float64
	hv.m.mu.RLock()
	for _, s := range hv.m.series {
		total += math.Float64frombits(s.sumBits.Load())
	}
	hv.m.mu.RUnlock()
	return total
}
