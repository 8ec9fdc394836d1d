package plan

import (
	"encoding/json"
	"sync"

	"lightyear/internal/core"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/store"
	"lightyear/internal/telemetry"
)

// Event is one progress event of a running plan. Each problem's events run
// "start" when it is submitted (carrying the check Total), then "check"
// events as the engine completes its checks — under the default
// results=failures only for checks that did not pass, under results=all for
// every check — then one "problem" event when its report is ready (carrying
// its stats, so progress jumps to the full check count). A problem whose
// checks could not be generated has no "start" event, only a skipped or
// failed "problem" event; one the engine refused (engine.ErrClosed) fails
// after its "start". "problem" events arrive in plan order. Problems
// are submitted a batch at a time (see Run), so on a plan larger than one
// batch, later problems' "start" events follow earlier problems' "problem"
// events. One "property" event per request property follows all of its
// problems, and a final "plan" event ends the stream. lyserve streams these
// as NDJSON on GET /v2/jobs/{id}/events.
type Event struct {
	Type string `json:"type"` // start | check | problem | property | plan

	// TraceID identifies the run's telemetry trace — the same ID lyserve
	// returns in the X-Trace-Id header and serves at /v1/traces/{id}.
	// Empty when the engine has no telemetry recorder.
	TraceID string `json:"trace_id,omitempty"`

	// Prop indexes the request's property list; Property is its suite name.
	Prop     int    `json:"prop"`
	Property string `json:"property,omitempty"`
	// Idx indexes the problem within the property; Problem is its name
	// (check and problem events).
	Idx     int    `json:"idx"`
	Problem string `json:"problem,omitempty"`

	// Check progress (check events).
	Completed int  `json:"completed,omitempty"`
	Total     int  `json:"total,omitempty"`
	FromCache bool `json:"from_cache,omitempty"`
	Deduped   bool `json:"deduped,omitempty"`

	// Outcome (check, problem, property, and plan events). Status is the
	// check's explicit verdict ("ok" | "fail" | "unknown") on check events.
	OK      *bool  `json:"ok,omitempty"`
	Status  string `json:"status,omitempty"`
	Skipped bool   `json:"skipped,omitempty"`
	Failed  bool   `json:"failed,omitempty"`
	Reason  string `json:"reason,omitempty"`

	// Dropped is set on the synthetic "truncated" event an event-windowed
	// host (lyserve -event-window) emits to late subscribers in place of
	// evicted history.
	Dropped int `json:"dropped,omitempty"`

	// Aggregated problem stats (problem events).
	Stats *engine.JobStats `json:"stats,omitempty"`
}

// ProblemResult is the outcome of one problem of one property.
type ProblemResult struct {
	Name       string `json:"name"`
	OK         bool   `json:"ok"`
	Skipped    bool   `json:"skipped,omitempty"`
	Failed     bool   `json:"failed,omitempty"`
	SkipReason string `json:"skip_reason,omitempty"`

	Stats *engine.JobStats `json:"stats,omitempty"`

	// Report is the problem's report (nil when skipped or failed). Its wire
	// form, "report", is encoded when the result is marshalled, not when the
	// run finishes: a run nobody serialises renders no description.
	Report *core.Report `json:"-"`
}

// EncodeReport returns the report's wire form, nil without a report.
func (p *ProblemResult) EncodeReport() *engine.ReportJSON {
	if p.Report == nil {
		return nil
	}
	enc := engine.EncodeReport(p.Report)
	return &enc
}

// MarshalJSON adds the encoded report to the tagged fields.
func (p ProblemResult) MarshalJSON() ([]byte, error) {
	type tagged ProblemResult
	return json.Marshal(struct {
		tagged
		Report *engine.ReportJSON `json:"report,omitempty"`
	}{tagged(p), p.EncodeReport()})
}

// PropertyResult is one per-property report of a plan run: the problems of
// one Property entry plus engine accounting aggregated over them, so a
// multi-property request shows how much of each property was served from
// the shared cache or coalesced with in-flight identical checks.
type PropertyResult struct {
	Property Property        `json:"property"`
	OK       bool            `json:"ok"`
	Stats    engine.JobStats `json:"stats"`
	Problems []ProblemResult `json:"problems"`
}

// Result is the outcome of one plan run.
type Result struct {
	OK bool `json:"ok"`
	// TraceID identifies the run's telemetry trace ("" without a recorder).
	TraceID string `json:"trace_id,omitempty"`
	// Failures counts proven violations plus problems that could not be
	// submitted; Unknowns counts undecided (budget-exhausted) checks. A run
	// with OK == false, Failures == 0, and Unknowns > 0 found no bug — it
	// ran out of solver budget, the condition `lightyear` maps to exit 3.
	Failures   int              `json:"failures,omitempty"`
	Unknowns   int              `json:"unknowns,omitempty"`
	Properties []PropertyResult `json:"properties"`
	Engine     engine.Stats     `json:"engine"`
	Store      *store.Stats     `json:"store,omitempty"`
}

// RunConfig parameterizes Run.
type RunConfig struct {
	// Sink, when non-nil, receives every Event. Calls are serialized, so
	// the sink needs no locking of its own and events form one total order
	// ending with the "plan" event.
	Sink func(Event)
	// Store, when non-nil, is the persistent store the caller plugged into
	// the engine; the result reports its traffic (Result.Store).
	Store *store.Store
	// Reservation, when non-nil, is the admission grant the host already
	// obtained for this plan (engine.Reserve with the compiled Cost) —
	// lyserve reserves in the HTTP handler so rejection is a synchronous
	// 429, then hands the grant to the asynchronous run. Run submits every
	// workload under it and releases it when the run completes. When nil,
	// Run reserves for itself and a rejection aborts the run before any
	// work is submitted (the error is a *engine.ErrAdmission).
	Reservation *engine.Reservation
	// Trace, when non-nil, is the telemetry trace the run records into —
	// lyserve opens it in the HTTP handler (with a "compile" span) so the
	// trace ID can be returned before the asynchronous run starts. When
	// nil, Run opens one on the engine's recorder (no-op without one).
	// Either way Run finishes the trace when it returns, landing it in the
	// recorder's ring.
	Trace *telemetry.Trace
}

// Run executes a compiled plan on the engine. The whole request is admitted
// as one unit first — its admission cost is the plan's check count, counted
// without generating any check — so a rejected plan returns
// *engine.ErrAdmission with no work submitted. Run then makes one one-shot
// pass of internal/delta's run loop (delta.Run) over the problems in plan
// order, streaming them in batches of delta.BatchChecks checks. A plan of
// up to one batch has every problem submitted before any is awaited, so the
// engine dedups identical checks across all of them; a larger plan dedups
// across the problems in flight and shares the rest through the result
// cache. Run verifies c.Network in full; Options.Baseline plays no part.
func Run(eng *engine.Engine, c *Compiled, cfg RunConfig) (*Result, error) {
	tr := cfg.Trace
	if tr == nil {
		tr = eng.Telemetry().StartTrace(c.Label(), c.Tenant())
	}
	defer tr.Finish()
	traceID := tr.ID()

	var sinkMu sync.Mutex
	emit := func(ev Event) {
		if cfg.Sink == nil {
			return
		}
		ev.TraceID = traceID
		sinkMu.Lock()
		cfg.Sink(ev)
		sinkMu.Unlock()
	}

	resv := cfg.Reservation
	if resv == nil {
		adm := tr.StartSpan("admit")
		adm.SetAttrInt("cost", int64(c.Cost()))
		var err error
		resv, err = eng.Reserve(c.Tenant(), c.Cost())
		if err != nil {
			adm.SetAttr("rejected", err.Error())
			adm.End()
			return nil, err
		}
		adm.End()
	}
	defer resv.Release()

	res := &Result{OK: true, TraceID: traceID, Properties: make([]PropertyResult, len(c.Units))}
	type ref struct{ prop, idx int }
	var refs []ref
	var problems []netgen.Problem
	for pi, u := range c.Units {
		res.Properties[pi] = PropertyResult{Property: u.Property, OK: true, Problems: make([]ProblemResult, len(u.Problems))}
		for i := range u.Problems {
			refs = append(refs, ref{pi, i})
		}
		problems = append(problems, u.Problems...)
	}
	event := func(typ string, i int, name string) Event {
		r := refs[i]
		return Event{Type: typ, Prop: r.prop, Property: c.Units[r.prop].Property.Name, Idx: r.idx, Problem: name}
	}
	hooks := delta.Hooks{
		Begin: func(i int, o *delta.ProblemOutcome) *telemetry.Span {
			sp := tr.StartSpan("problem:" + o.Name)
			if !o.Skipped && !o.Failed {
				// Before Submit: a worker may complete (and report) the
				// first check before Submit returns.
				ev := event("start", i, o.Name)
				ev.Total = o.Dirty
				emit(ev)
			}
			return sp
		},
		Done: func(i int, o *delta.ProblemOutcome, st *engine.JobStats) {
			pr := &res.Properties[refs[i].prop]
			out := &pr.Problems[refs[i].idx]
			*out = ProblemResult{Name: o.Name, OK: o.OK || o.Skipped, Skipped: o.Skipped, Failed: o.Failed,
				SkipReason: o.SkipReason, Stats: st, Report: o.Report}
			if !out.OK {
				pr.OK = false
			}
			ok := out.OK
			ev := event("problem", i, o.Name)
			ev.OK, ev.Stats = &ok, st
			if st == nil {
				ev.Skipped, ev.Failed, ev.Reason = o.Skipped, o.Failed, o.SkipReason
			}
			emit(ev)
		},
	}
	// Check events come straight from the engine's workers as checks
	// complete.
	template := c.Workload()
	if cfg.Sink != nil {
		allChecks := template.Results != engine.ResultsFailures
		hooks.Check = func(i int, p engine.Progress) {
			if ok := p.Result.OK; allChecks || !ok {
				ev := event("check", i, c.Units[refs[i].prop].Problems[refs[i].idx].Name)
				ev.Completed, ev.Total, ev.FromCache, ev.Deduped = p.Completed, p.Total, p.FromCache, p.Deduped
				ev.OK, ev.Status = &ok, p.Result.Status.String()
				emit(ev)
			}
		}
	}
	dres, err := delta.Run(eng, problems, template, resv, hooks)
	if err != nil {
		return nil, err
	}
	res.OK, res.Failures, res.Unknowns = dres.OK, dres.Failures, dres.Unknown

	// Aggregate per-property stats, emit property summaries, then the final
	// plan event — the stream's completion marker.
	for pi := range res.Properties {
		pr := &res.Properties[pi]
		for _, out := range pr.Problems {
			if out.Stats != nil {
				pr.Stats.Checks += out.Stats.Checks
				pr.Stats.Completed += out.Stats.Completed
				pr.Stats.CacheHits += out.Stats.CacheHits
				pr.Stats.DedupHits += out.Stats.DedupHits
				pr.Stats.Cost += out.Stats.Cost
				pr.Stats.Solved += out.Stats.Solved
				pr.Stats.Unknown += out.Stats.Unknown
				pr.Stats.Raced += out.Stats.Raced
				pr.Stats.Escalated += out.Stats.Escalated
				pr.Stats.SolveNanos += out.Stats.SolveNanos
				pr.Stats.Solver.Add(out.Stats.Solver)
				pr.Stats.Backend = out.Stats.Backend // one backend per plan
				pr.Stats.Tenant = out.Stats.Tenant   // one tenant per plan
				if out.Stats.QueueWaitNanos > pr.Stats.QueueWaitNanos {
					pr.Stats.QueueWaitNanos = out.Stats.QueueWaitNanos // worst per-problem wait
				}
			}
		}
		ok := pr.OK
		emit(Event{Type: "property", Prop: pi, Property: pr.Property.Name, OK: &ok, Stats: &pr.Stats})
	}
	res.Engine = eng.Stats()
	if cfg.Store != nil {
		ss := tr.StartSpan("store")
		st := cfg.Store.Stats()
		res.Store = &st
		ss.SetAttrInt("puts", int64(st.Puts))
		ss.SetAttrInt("hits", int64(st.Hits))
		ss.End()
	}
	ok := res.OK
	emit(Event{Type: "plan", OK: &ok})
	return res, nil
}
