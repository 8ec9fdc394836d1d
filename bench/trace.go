package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function. It is the harness's own type: internal/telemetry
// is itself one of the layers measured.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1: a root
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`    // index of the input (problem, obligation, request) the call served
	Start    int64  `json:"start"` // ns since the trace began
	End      int64  `json:"end"`
}

// tracer keeps spans in memory and writes them out when the pass ends. The
// span open on top of the stack is the parent of the next one; the traced
// pass runs one call at a time (the engine has one worker), so the stack
// order is the causal order. With on == false every call is a plain call,
// which is how the tracing overhead is measured.
type tracer struct {
	on       bool
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
	stack []int
}

func newTracer(workload string, on bool) *tracer {
	return &tracer{on: on, workload: workload, t0: time.Now()}
}

func (t *tracer) begin(name, layer string, op int) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Workload: t.workload, Op: op})
	t.stack = append(t.stack, id)
	t.spans[id].Start = time.Since(t.t0).Nanoseconds()
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == id {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
}

// in runs f inside a span and returns how long it took, in seconds.
func (t *tracer) in(name, layer string, op int, f func()) float64 {
	id := t.begin(name, layer, op)
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	t.end(id)
	return d
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, upTo := int64(0), s.Start
		for _, c := range cs {
			from, to := max(c.Start, upTo), min(c.End, s.End)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// write stores the spans as JSON, one array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
