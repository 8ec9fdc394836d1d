// Package telemetry is the dependency-free observability substrate for the
// verification stack: atomic counters, fixed-bucket histograms, gauge
// callbacks, and per-workload span trees, all funneled through a single
// Recorder that renders Prometheus text exposition on demand.
//
// The package is built for instrumentation on hot paths:
//
//   - every mutation is an atomic add (no locks after a series handle is
//     resolved, and resolving a handle is one RLock'd map probe);
//   - every API is nil-safe — a nil *Recorder, *CounterVec, or *Span is a
//     no-op — so instrumented code never branches on "is telemetry on";
//   - completed traces land in a bounded ring, so memory stays flat no
//     matter how long the process runs.
//
// The engine, admission layer, dispatcher, solver routing, delta verifier,
// and store all emit into one Recorder; lyserve exposes it at GET /metrics
// and GET /v1/traces, and lightyear prints span trees behind -trace.
package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Recorder is the process-wide metrics and trace hub. The zero value is not
// usable; construct with New. A nil *Recorder is a valid no-op sink: every
// method (and every handle derived from it) tolerates nil receivers.
type Recorder struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string // registration order for stable iteration before sort

	traces traceRing
}

// New returns an empty Recorder. traceCap bounds the ring of completed
// traces retained for GET /v1/traces; values < 1 select DefaultTraceCap.
func New(traceCap int) *Recorder {
	if traceCap < 1 {
		traceCap = DefaultTraceCap
	}
	return &Recorder{
		metrics: make(map[string]*metric),
		traces:  traceRing{cap: traceCap},
	}
}

// DefaultTraceCap is the completed-trace ring size used when New is given a
// non-positive capacity.
const DefaultTraceCap = 256

// metricKind discriminates exposition rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindHistogram
	kindGauge
)

// metric is one registered family: a name, help text, label schema, and the
// live series keyed by joined label values.
type metric struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	buckets    []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*series
	sorder []string

	gauge func() []Sample // kindGauge only
}

// series is the leaf storage for one label combination.
type series struct {
	labels []string

	// Counter state.
	count atomic.Uint64

	// Histogram state (len(buckets) finite buckets + implicit +Inf).
	bucketCounts []atomic.Uint64
	infCount     atomic.Uint64
	sumBits      atomic.Uint64 // float64 bits, CAS-accumulated
}

// register returns the family for name, creating it on first use. Families
// are identified by name alone; re-registering with a different shape keeps
// the first registration (instrumentation sites agree by construction).
func (r *Recorder) register(name, help string, kind metricKind, labelNames []string, buckets []float64) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := &metric{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: labelNames,
		buckets:    buckets,
		series:     make(map[string]*series),
	}
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m
}

// with resolves (creating if needed) the series for the given label values.
func (m *metric) with(values []string) *series {
	key := strings.Join(values, "\x00")
	m.mu.RLock()
	s := m.series[key]
	m.mu.RUnlock()
	if s != nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s = m.series[key]; s != nil {
		return s
	}
	s = &series{labels: append([]string(nil), values...)}
	if m.kind == kindHistogram {
		s.bucketCounts = make([]atomic.Uint64, len(m.buckets))
	}
	m.series[key] = s
	m.sorder = append(m.sorder, key)
	return s
}

// CounterVec is a family of monotonically increasing counters partitioned
// by label values.
type CounterVec struct{ m *metric }

// Counter registers (or fetches) a counter family. Label values are
// supplied per-series via With.
func (r *Recorder) Counter(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{m: r.register(name, help, kindCounter, labelNames, nil)}
}

// With resolves the counter for one label-value combination. Handles are
// cheap to cache and safe for concurrent use.
func (cv *CounterVec) With(values ...string) *Counter {
	if cv == nil {
		return nil
	}
	return (*Counter)(cv.m.with(values))
}

// Counter is a single monotonically increasing series.
type Counter series

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.count.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.count.Load()
}

// Sample is one gauge observation: label values matching the registered
// label names, and the instantaneous value.
type Sample struct {
	Labels []string
	Value  float64
}

// GaugeFunc registers a callback evaluated at exposition time; it returns
// the family's current samples. Use for values the owning subsystem already
// tracks (queue depth, cache occupancy, journal size).
func (r *Recorder) GaugeFunc(name, help string, labelNames []string, fn func() []Sample) {
	if r == nil || fn == nil {
		return
	}
	m := r.register(name, help, kindGauge, labelNames, nil)
	m.mu.Lock()
	m.gauge = fn
	m.mu.Unlock()
}

// snapshotOrder returns metric names sorted for deterministic exposition.
func (r *Recorder) snapshotOrder() []*metric {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	out := make([]*metric, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		out = append(out, r.metrics[name])
	}
	r.mu.Unlock()
	return out
}
