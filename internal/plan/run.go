package plan

import (
	"context"
	"encoding/json"
	"errors"
	"sync"

	"lightyear/internal/core"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/store"
	"lightyear/internal/telemetry"
)

// Event is one progress event of a running plan. Each problem's events run
// "start" when it is submitted (carrying the check Total), then "check"
// events as the engine completes its checks — under the default
// results=failures only for checks that did not pass, under results=all for
// every check — then one "problem" event when its report is ready (carrying
// its stats, so progress jumps to the full check count). A problem that
// could not be generated or submitted has no "start" event, only a skipped
// or failed "problem" event. "problem" events arrive in plan order. Problems
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

	// Baseline and Update are set in delta-vs-baseline mode
	// (Options.Baseline) instead of Properties.
	Baseline *delta.Result `json:"baseline,omitempty"`
	Update   *delta.Result `json:"update,omitempty"`
}

// RunConfig parameterizes Run.
type RunConfig struct {
	// Sink, when non-nil, receives every Event. Calls are serialized, so
	// the sink needs no locking of its own and events form one total order
	// ending with the "plan" event.
	Sink func(Event)
	// Store, when non-nil, is tagged with the fingerprints of the networks
	// the run verifies (provenance on journaled results); the store itself
	// must already be plugged into the engine by the caller.
	Store *store.Store
	// Reservation, when non-nil, is the admission grant the host already
	// obtained for this plan (engine.Reserve with the compiled Cost) —
	// lyserve reserves in the HTTP handler so rejection is a synchronous
	// 429, then hands the grant to the asynchronous run. Run submits every
	// workload under it and releases it when the run completes. When nil,
	// Run reserves for itself and a rejection aborts the run before any
	// work is submitted (the error is a *engine.ErrAdmission). A delta-mode
	// plan (Options.Baseline) releases a host grant at once: its delta
	// verifier reserves each of its two runs itself.
	Reservation *engine.Reservation
	// Trace, when non-nil, is the telemetry trace the run records into —
	// lyserve opens it in the HTTP handler (with a "compile" span) so the
	// trace ID can be returned before the asynchronous run starts. When
	// nil, Run opens one on the engine's recorder (no-op without one).
	// Either way Run finishes the trace when it returns, landing it in the
	// recorder's ring.
	Trace *telemetry.Trace
}

// batchChecks is how many checks Run generates before submitting them, and
// how many may stay outstanding while it generates the next batch. Peak
// memory follows it rather than the plan's size. A batch is submitted back
// to back: generating between submits would interleave concurrent plans'
// problems in their tenant's FIFO queue and share the workers among them.
const batchChecks = 1 << 16

// Run executes a compiled plan on the engine through the unified
// engine.Submit path. The whole request is admitted as one unit first — its
// admission cost is the plan's check count, counted without generating any
// check — so a rejected plan returns *engine.ErrAdmission with no work
// submitted. Run then walks the problems in plan order, generating their
// checks into a batch of at least batchChecks checks (or to the end of the
// plan), submits the batch, and collects finished problems oldest-first
// until no more than batchChecks checks are outstanding before generating
// the next batch. A plan of up to batchChecks checks is one batch: every
// problem is submitted before any is awaited, and the engine dedups
// identical checks across all of them; a larger plan dedups across the
// problems in flight and shares the rest through the result cache. In delta
// mode (Options.Baseline) the run goes through an internal/delta verifier
// instead, re-solving only the checks the baseline→network change dirtied.
func Run(eng *engine.Engine, c *Compiled, cfg RunConfig) (*Result, error) {
	if c.Baseline != nil {
		return runDelta(eng, c, cfg)
	}

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
	if cfg.Store != nil {
		cfg.Store.SetFingerprint(c.Network.Fingerprint())
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
	for pi, u := range c.Units {
		res.Properties[pi] = PropertyResult{Property: u.Property, OK: true, Problems: make([]ProblemResult, len(u.Problems))}
	}

	// Check events come straight from the engine's workers as checks
	// complete.
	template := c.Workload()
	allChecks := template.Results != engine.ResultsFailures
	// pending is one problem from generation to collection; job is nil when
	// its checks could not be generated or submitted.
	type pending struct {
		prop, idx int
		prep      PreparedProblem
		total     int
		job       *engine.Job
		span      *telemetry.Span
	}
	var batch, queue []*pending // generated, not submitted; submitted, not collected
	batched, outstanding := 0, 0

	submit := func(pd *pending) {
		u, p := c.Units[pd.prop], c.Units[pd.prop].Problems[pd.idx]
		pd.span = tr.StartSpan("problem:" + p.Name)
		err := pd.prep.Err
		if err == nil {
			check := Event{Type: "check", Prop: pd.prop, Property: u.Property.Name, Idx: pd.idx, Problem: p.Name}
			wl := template
			wl.Kind = engine.KindChecks
			wl.Property = pd.prep.Property
			wl.Checks = pd.prep.Checks
			wl.Reservation = resv
			wl.TraceSpan = pd.span
			if cfg.Sink != nil {
				wl.OnResult = func(p engine.Progress) {
					if ok := p.Result.OK; allChecks || !ok {
						ev := check
						ev.Completed, ev.Total, ev.FromCache, ev.Deduped = p.Completed, p.Total, p.FromCache, p.Deduped
						ev.OK, ev.Status = &ok, p.Result.Status.String()
						emit(ev)
					}
				}
			}
			// Before Submit: a worker may complete (and report) the first
			// check before Submit returns.
			emit(Event{Type: "start", Prop: pd.prop, Property: u.Property.Name, Idx: pd.idx,
				Problem: p.Name, Total: len(wl.Checks)})
			pd.job, err = eng.Submit(context.Background(), wl)
		}
		total := len(pd.prep.Checks)
		pd.prep = PreparedProblem{} // the engine holds the checks until the job finishes
		if err != nil {
			pd.span.SetAttr("error", err.Error())
			pd.span.End()
			out := &res.Properties[pd.prop].Problems[pd.idx]
			out.SkipReason = err.Error()
			if p.Optional {
				out.Skipped, out.OK = true, true
			} else {
				out.Failed = true
				res.Properties[pd.prop].OK = false
				res.OK = false
				res.Failures++
			}
			return
		}
		pd.total = total
	}

	// collect records a submitted problem's outcome and emits its problem
	// event; for a problem that never reached the engine it emits only the
	// event, at the same place in plan order.
	collect := func(pd *pending) {
		out := &res.Properties[pd.prop].Problems[pd.idx]
		name := c.Units[pd.prop].Property.Name
		if pd.job == nil {
			ok := out.OK
			emit(Event{Type: "problem", Prop: pd.prop, Property: name, Idx: pd.idx,
				Problem: out.Name, OK: &ok, Skipped: out.Skipped, Failed: out.Failed, Reason: out.SkipReason})
			return
		}
		rep := pd.job.Wait()
		st := pd.job.Stats()
		ok := rep.OK()
		pd.span.SetAttrInt("checks", int64(st.Checks))
		if !ok {
			pd.span.SetAttr("ok", "false")
		}
		pd.span.End()

		out.Report, out.Stats, out.OK = rep, &st, ok
		res.Failures += len(rep.HardFailures())
		res.Unknowns += len(rep.Unknowns())
		if !ok {
			res.Properties[pd.prop].OK = false
			res.OK = false
		}
		emit(Event{Type: "problem", Prop: pd.prop, Property: name, Idx: pd.idx,
			Problem: out.Name, OK: &ok, Stats: &st})
	}

	// flush submits the batch, then collects oldest-first while more than
	// batchChecks checks are outstanding — or, at the end of the plan, all.
	flush := func(final bool) {
		for _, pd := range batch {
			submit(pd)
			outstanding += pd.total
		}
		queue = append(queue, batch...)
		batch, batched = batch[:0], 0
		for len(queue) > 0 && (final || outstanding > batchChecks || queue[0].job == nil) {
			collect(queue[0])
			outstanding -= queue[0].total
			queue[0] = nil
			queue = queue[1:]
		}
	}
	for pi, u := range c.Units {
		for i, p := range u.Problems {
			res.Properties[pi].Problems[i].Name = p.Name
			pd := &pending{prop: pi, idx: i, prep: prepare(p)}
			batch = append(batch, pd)
			batched += len(pd.prep.Checks)
			if batched >= batchChecks {
				flush(false)
			}
		}
	}
	flush(true)

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

// runDelta is the delta-vs-baseline body: verify the baseline in full, then
// re-verify the request's network incrementally against it. Per-check
// events are not streamed in this mode (the delta verifier batches dirty
// subsets internally); the property and plan events still are.
func runDelta(eng *engine.Engine, c *Compiled, cfg RunConfig) (*Result, error) {
	// The delta verifier admits each of its runs (baseline, then update) as
	// its own unit under the plan's tenant, so a host-made whole-plan grant
	// is returned up front rather than held — or leaked — alongside them.
	cfg.Reservation.Release()

	tr := cfg.Trace
	if tr == nil {
		tr = eng.Telemetry().StartTrace(c.Label(), c.Tenant())
	}
	defer tr.Finish()

	res := &Result{TraceID: tr.ID()}
	v := delta.NewVerifierFor(eng, c)
	wl := c.Workload()
	// Both delta runs' engine spans nest under one "delta" span of this
	// run's trace rather than opening per-workload traces of their own.
	del := tr.StartSpan("delta")
	defer del.End()
	wl.TraceSpan = del
	v.SetWorkload(wl)
	if cfg.Store != nil {
		cfg.Store.SetFingerprint(c.Baseline.Fingerprint())
	}
	bs := tr.StartSpan("baseline")
	base, err := v.Baseline(c.Baseline)
	if err != nil {
		bs.End()
		return nil, err
	}
	bs.SetAttrInt("solved", int64(base.Solved))
	bs.End()
	if cfg.Store != nil {
		cfg.Store.SetFingerprint(c.Network.Fingerprint())
	}
	us := tr.StartSpan("update")
	upd, err := v.Update(c.Network)
	if err != nil {
		us.End()
		return nil, err
	}
	us.SetAttrInt("solved", int64(upd.Solved))
	us.SetAttrInt("reused", int64(upd.ReusedResults))
	us.End()
	res.Baseline, res.Update = base, upd
	res.OK = upd.OK
	res.Failures, res.Unknowns = upd.Failures, upd.Unknown
	res.Engine = eng.Stats()
	if cfg.Store != nil {
		st := cfg.Store.Stats()
		res.Store = &st
	}
	if cfg.Sink != nil {
		ok := res.OK
		cfg.Sink(Event{Type: "plan", OK: &ok, TraceID: res.TraceID})
	}
	return res, nil
}

// Execute is the library one-stop entry point: compile the request, build
// an engine (and persistent store) from its options, run, and tear down.
// Hosts with a long-lived engine use Compile + Run instead.
func Execute(req Request, res Resolver) (*Result, error) {
	c, err := Compile(req, res)
	if err != nil {
		return nil, err
	}
	opts := engine.Options{Workers: req.Options.Workers, CacheSize: req.Options.Cache}
	var st *store.Store
	if req.Options.Store != "" {
		st, err = store.OpenOptions(req.Options.Store, store.Options{MaxFingerprints: req.Options.StoreRetain})
		if err != nil {
			return nil, err
		}
		defer st.Close()
		opts.Cache = st
	}
	eng := engine.New(opts)
	defer eng.Close()
	return Run(eng, c, RunConfig{Store: st})
}

// errEmptyProblem mirrors the legacy entry points' guard for suites that
// produce a Problem with neither half set.
var errEmptyProblem = errors.New("suite produced an empty problem")
