package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterVec(t *testing.T) {
	r := New(0)
	cv := r.Counter("test_total", "help", "tenant", "reason")
	cv.With("t1", "quota").Add(3)
	cv.With("t1", "quota").Inc()
	cv.With("t2", "queue").Inc()
	if got := cv.With("t1", "quota").Value(); got != 4 {
		t.Fatalf("t1/quota = %d, want 4", got)
	}
	if got := cv.With("t2", "queue").Value(); got != 1 {
		t.Fatalf("t2/queue = %d, want 1", got)
	}
	if got := cv.With("t3", "other").Value(); got != 0 {
		t.Fatalf("untouched series = %d, want 0", got)
	}
}

// TestHistogramBucketBoundaries pins the le (less-or-equal) semantics: an
// observation exactly on a bound lands in that bucket, just above it lands
// in the next, and beyond the last finite bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := New(0)
	hv := r.Histogram("test_seconds", "help", []float64{0.001, 0.01, 0.1})
	h := hv.With()

	h.Observe(0.001)  // == first bound: bucket 0
	h.Observe(0.0011) // just above: bucket 1
	h.Observe(0.01)   // == second bound: bucket 1
	h.Observe(0.1)    // == last bound: bucket 2
	h.Observe(0.5)    // beyond: +Inf
	h.Observe(0)      // below everything: bucket 0

	want := []uint64{2, 2, 1}
	for i, w := range want {
		if got := h.s.bucketCounts[i].Load(); got != w {
			t.Errorf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
	if got := h.s.infCount.Load(); got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
	if got := h.Count(); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	wantSum := 0.001 + 0.0011 + 0.01 + 0.1 + 0.5
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-12 {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
}

// TestHistogramCumulativeExposition checks that the rendered _bucket series
// are cumulative and end with a +Inf bucket equal to _count.
func TestHistogramCumulativeExposition(t *testing.T) {
	r := New(0)
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1}).With()
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := r.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP lat_seconds latency\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeFunc(t *testing.T) {
	r := New(0)
	val := 7.5
	r.GaugeFunc("occupancy", "cache occupancy", []string{"kind"}, func() []Sample {
		return []Sample{{Labels: []string{"lru"}, Value: val}}
	})
	var b strings.Builder
	if err := r.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `occupancy{kind="lru"} 7.5`) {
		t.Errorf("gauge exposition missing series:\n%s", b.String())
	}
}

func TestExpositionDeterministic(t *testing.T) {
	r := New(0)
	cv := r.Counter("zz_total", "z", "k")
	cv.With("b").Inc()
	cv.With("a").Inc()
	r.Counter("aa_total", "a").With().Inc()
	var b1, b2 strings.Builder
	if err := r.WriteMetrics(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("exposition not deterministic across calls")
	}
	if strings.Index(b1.String(), "aa_total") > strings.Index(b1.String(), "zz_total") {
		t.Error("families not sorted by name")
	}
	if strings.Index(b1.String(), `zz_total{k="a"}`) > strings.Index(b1.String(), `zz_total{k="b"}`) {
		t.Error("series not sorted within family")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New(0)
	r.Counter("esc_total", "h", "v").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", b.String())
	}
}

// TestNilSafety verifies the whole API is a no-op on nil receivers, which
// is what lets instrumented code skip "is telemetry enabled" branches.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	cv := r.Counter("x_total", "h")
	cv.With().Inc()
	cv.With().Add(5)
	if cv.With().Value() != 0 {
		t.Error("nil counter has a value")
	}
	hv := r.Histogram("y_seconds", "h", nil)
	hv.With().Observe(1)
	if hv.Count() != 0 || hv.Sum() != 0 {
		t.Error("nil histogram not zero")
	}
	r.GaugeFunc("g", "h", nil, func() []Sample { return nil })
	if err := r.WriteMetrics(&strings.Builder{}); err != nil {
		t.Error(err)
	}
	tr := r.StartTrace("label", "tenant")
	if tr.ID() != "" {
		t.Error("nil trace has an ID")
	}
	sp := tr.StartSpan("solve")
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 3)
	child := sp.StartSpan("inner")
	child.End()
	sp.End()
	tr.Finish()
	if got := r.Traces(10); got != nil {
		t.Errorf("nil recorder traces = %v", got)
	}
	if _, ok := r.Trace("abc"); ok {
		t.Error("nil recorder found a trace")
	}
}

func TestTraceSpanTree(t *testing.T) {
	r := New(4)
	tr := r.StartTrace("plan-a", "t1")
	if tr.ID() == "" {
		t.Fatal("empty trace ID")
	}
	q := tr.StartSpan("queue")
	q.End()
	sv := tr.StartSpan("solve:native")
	sv.SetAttrInt("solved", 12)
	inner := sv.StartSpan("cache")
	inner.SetAttr("hit", "true")
	inner.End()
	sv.End()
	open := tr.StartSpan("dangling") // left open: Finish must close it
	_ = open
	tr.Finish()

	snap, ok := r.Trace(tr.ID())
	if !ok {
		t.Fatal("finished trace not in ring")
	}
	if snap.Label != "plan-a" || snap.Tenant != "t1" {
		t.Errorf("label/tenant = %q/%q", snap.Label, snap.Tenant)
	}
	if len(snap.Spans) != 3 {
		t.Fatalf("root spans = %d, want 3", len(snap.Spans))
	}
	solve := snap.Spans[1]
	if solve.Name != "solve:native" || solve.Attrs["solved"] != "12" {
		t.Errorf("solve span = %+v", solve)
	}
	if len(solve.Children) != 1 || solve.Children[0].Attrs["hit"] != "true" {
		t.Errorf("solve children = %+v", solve.Children)
	}
	if snap.Spans[2].DurationNS < 0 {
		t.Errorf("dangling span duration = %d", snap.Spans[2].DurationNS)
	}

	var b strings.Builder
	snap.WriteTree(&b)
	out := b.String()
	for _, want := range []string{"trace " + tr.ID(), "label=plan-a", "solve:native", "solved=12", "    cache"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteTree missing %q:\n%s", want, out)
		}
	}
}

// TestTraceRingBound fills the ring past capacity and checks eviction
// order (oldest first) and newest-first listing.
func TestTraceRingBound(t *testing.T) {
	r := New(3)
	var ids []string
	for i := 0; i < 5; i++ {
		tr := r.StartTrace("t", "")
		ids = append(ids, tr.ID())
		tr.Finish()
	}
	got := r.Traces(0)
	if len(got) != 3 {
		t.Fatalf("retained = %d, want 3", len(got))
	}
	// Newest first: ids[4], ids[3], ids[2].
	for i, want := range []string{ids[4], ids[3], ids[2]} {
		if got[i].ID != want {
			t.Errorf("traces[%d] = %s, want %s", i, got[i].ID, want)
		}
	}
	if _, ok := r.Trace(ids[0]); ok {
		t.Error("evicted trace still findable")
	}
	if lim := r.Traces(2); len(lim) != 2 || lim[0].ID != ids[4] {
		t.Errorf("limited listing = %+v", lim)
	}
}

// TestConcurrentRecorder hammers counters, histograms, gauges, traces, and
// exposition from many goroutines at once; run under -race this is the
// recorder's concurrency contract.
func TestConcurrentRecorder(t *testing.T) {
	r := New(8)
	cv := r.Counter("c_total", "h", "worker")
	hv := r.Histogram("h_seconds", "h", nil, "backend")
	r.GaugeFunc("g", "h", nil, func() []Sample { return []Sample{{Value: 1}} })

	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			c := cv.With(name)
			h := hv.With(name)
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(float64(i) * 0.001)
				tr := r.StartTrace("load", name)
				s := tr.StartSpan("solve:native")
				s.SetAttrInt("i", int64(i))
				s.StartSpan("cache").End()
				s.End()
				tr.Finish()
				if i%50 == 0 {
					_ = r.WriteMetrics(&strings.Builder{})
					_ = r.Traces(4)
					_, _ = r.Trace(tr.ID())
					_ = hv.Sum()
				}
			}
		}(w)
	}
	wg.Wait()

	var total uint64
	for w := 0; w < workers; w++ {
		total += cv.With(string(rune('a' + w))).Value()
	}
	if total != workers*iters {
		t.Errorf("counter total = %d, want %d", total, workers*iters)
	}
	if got := hv.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	if got := len(r.Traces(0)); got != 8 {
		t.Errorf("ring size = %d, want cap 8", got)
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("bucket[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
