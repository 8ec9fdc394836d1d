package engine

import (
	"fmt"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/solver"
	"lightyear/internal/telemetry"
)

// engineMetrics holds the engine's pre-resolved telemetry handles. Every
// handle is nil when the engine has no recorder, and every emission goes
// through the handles' nil-safe methods, so the hot paths never branch on
// whether telemetry is enabled.
type engineMetrics struct {
	rec *telemetry.Recorder

	jobsSubmitted   *telemetry.Counter
	jobsCompleted   *telemetry.Counter
	checksSubmitted *telemetry.Counter

	solved       *telemetry.CounterVec   // backend, status
	solveSeconds *telemetry.HistogramVec // backend
	conflicts    *telemetry.HistogramVec // backend; CDCL conflicts per check
	clauses      *telemetry.HistogramVec // backend; CNF clauses per check
	queueWait    *telemetry.Histogram
	cacheHits    *telemetry.CounterVec // kind = cache | dedup
	cacheHit     *telemetry.Counter    // pre-resolved kind=cache
	dedupHit     *telemetry.Counter    // pre-resolved kind=dedup
	rejections   *telemetry.CounterVec // tenant, reason
	raced        *telemetry.CounterVec // backend
	escalations  *telemetry.CounterVec // backend
}

// newEngineMetrics registers the engine's metric families on rec (nil rec
// registers nothing) and wires gauge callbacks onto the engine's live
// scheduler and cache state.
func newEngineMetrics(rec *telemetry.Recorder, e *Engine) *engineMetrics {
	m := &engineMetrics{rec: rec}
	m.jobsSubmitted = rec.Counter("lightyear_jobs_submitted_total",
		"Workloads admitted by engine.Submit.").With()
	m.jobsCompleted = rec.Counter("lightyear_jobs_completed_total",
		"Jobs whose every check completed.").With()
	m.checksSubmitted = rec.Counter("lightyear_checks_submitted_total",
		"Checks enqueued across all jobs.").With()
	m.solved = rec.Counter("lightyear_checks_solved_total",
		"Checks executed by a solver backend, by backend and result status.",
		"backend", "status")
	m.solveSeconds = rec.Histogram("lightyear_solve_seconds",
		"Wall-clock time per executed check, by solver backend.",
		nil, "backend")
	m.conflicts = rec.Histogram("lightyear_conflicts_per_check",
		"CDCL conflicts per executed check, by solver backend.",
		telemetry.CountBuckets, "backend")
	m.clauses = rec.Histogram("lightyear_clauses_per_check",
		"CNF clauses per executed check's formula, by solver backend.",
		telemetry.CountBuckets, "backend")
	m.queueWait = rec.Histogram("lightyear_queue_wait_seconds",
		"Time between a workload's admission and the dispatch of its first check.",
		nil).With()
	m.cacheHits = rec.Counter("lightyear_cache_hits_total",
		"Checks not solved: served from the result cache (kind=cache) or coalesced with an in-flight identical solve (kind=dedup).",
		"kind")
	m.cacheHit = m.cacheHits.With("cache")
	m.dedupHit = m.cacheHits.With("dedup")
	m.rejections = rec.Counter("lightyear_admission_rejections_total",
		"Workloads shed at admission, by tenant and refusing limit.",
		"tenant", "reason")
	m.raced = rec.Counter("lightyear_portfolio_raced_total",
		"Solver variants raced by the portfolio backend.", "backend")
	m.escalations = rec.Counter("lightyear_tiered_escalations_total",
		"Tiered-backend solves that exhausted the quick budget and escalated.", "backend")

	rec.GaugeFunc("lightyear_inflight_cost",
		"Admitted check cost not yet completed or released.", nil,
		func() []telemetry.Sample {
			e.sched.mu.Lock()
			v := e.sched.inflight
			e.sched.mu.Unlock()
			return []telemetry.Sample{{Value: float64(v)}}
		})
	rec.GaugeFunc("lightyear_queued_workloads",
		"Admitted workloads awaiting dispatch.", nil,
		func() []telemetry.Sample {
			e.sched.mu.Lock()
			v := e.sched.queued
			e.sched.mu.Unlock()
			return []telemetry.Sample{{Value: float64(v)}}
		})
	if e.cache != nil {
		rec.GaugeFunc("lightyear_cache_entries",
			"In-memory result-cache occupancy.", nil,
			func() []telemetry.Sample {
				return []telemetry.Sample{{Value: float64(e.cache.Len())}}
			})
		rec.GaugeFunc("lightyear_cache_capacity",
			"In-memory result-cache capacity.", nil,
			func() []telemetry.Sample {
				return []telemetry.Sample{{Value: float64(e.cache.capacity)}}
			})
	}
	rec.GaugeFunc("lightyear_cache_hit_ratio",
		"Fraction of submitted checks served without a solve (cache + dedup).", nil,
		func() []telemetry.Sample {
			sub := e.checksSubmitted.Load()
			if sub == 0 {
				return []telemetry.Sample{{Value: 0}}
			}
			hits := e.cacheHits.Load() + e.dedupHits.Load()
			return []telemetry.Sample{{Value: float64(hits) / float64(sub)}}
		})
	return m
}

// rejected records one admission rejection.
func (m *engineMetrics) rejected(tenant, reason string) {
	m.rejections.With(tenant, reason).Inc()
}

// solveDone records one executed check's outcome.
func (m *engineMetrics) solveDone(backend string, out solver.Outcome) {
	m.solved.With(backend, out.Status.String()).Inc()
	m.solveSeconds.With(backend).Observe(out.TotalTime.Seconds())
	m.conflicts.With(backend).Observe(float64(out.Solver.Conflicts))
	m.clauses.With(backend).Observe(float64(out.NumCons))
	if out.Raced > 0 {
		m.raced.With(backend).Add(uint64(out.Raced))
	}
	if out.Escalated {
		m.escalations.With(backend).Inc()
	}
}

// Telemetry returns the recorder the engine emits into (nil when
// Options.Telemetry was nil). Hosts use it to expose /metrics and traces,
// and to point satellite subsystems (the store, the plan runner) at the
// same sink.
func (e *Engine) Telemetry() *telemetry.Recorder { return e.opts.Telemetry }

// traceLabel names an engine-owned trace after its workload.
func traceLabel(prop core.Property) string {
	if prop.Desc != "" {
		return prop.Desc
	}
	if prop.Pred != nil {
		return prop.String()
	}
	return "workload"
}

// startJobTelemetry attaches tracing to a freshly admitted job: under a
// caller-provided parent span (a plan run's per-problem span) the engine
// only adds child spans, otherwise it opens a trace of its own and finishes
// it when the job completes. Either way the queue span starts now —
// admission just succeeded, dispatch hasn't happened.
func (j *Job) startJobTelemetry(parent *telemetry.Span) {
	if parent != nil {
		j.span = parent
	} else if rec := j.engine.met.rec; rec != nil {
		j.trace = rec.StartTrace(traceLabel(j.Property), j.Tenant)
	}
	j.queueSpan = j.startSpan("queue")
}

// startSpan opens a span under the job's trace parent (the workload's
// TraceSpan, or the engine-owned trace). Nil-safe all the way down.
func (j *Job) startSpan(name string) *telemetry.Span {
	if j.span != nil {
		return j.span.StartSpan(name)
	}
	return j.trace.StartSpan(name)
}

// spanDispatched closes the queue span and opens the dispatch span; called
// by the dispatcher when the job's first check is released.
func (j *Job) spanDispatched() {
	j.mu.Lock()
	j.queueSpan.End()
	j.dispatchSpan = j.startSpan("dispatch")
	j.mu.Unlock()
}

// spanDrained closes the dispatch span; called by the dispatcher when the
// job's last check is released to the pool.
func (j *Job) spanDrained() {
	j.mu.Lock()
	j.dispatchSpan.End()
	j.mu.Unlock()
}

// ensureSolveSpan opens the job's solve:<backend> span on its first
// executed check.
func (j *Job) ensureSolveSpan(backend string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.solveSpanSet {
		j.solveSpanSet = true
		j.solveSpan = j.startSpan("solve:" + backend)
	}
}

// finishJobTelemetry closes the job's spans with their summary attributes
// and finishes an engine-owned trace. Called once, from finish.
func (j *Job) finishJobTelemetry() {
	j.mu.Lock()
	queue, dispatch, solve := j.queueSpan, j.dispatchSpan, j.solveSpan
	cacheHits, dedupHits, solved, unknown := j.cacheHits, j.dedupHits, j.solved, j.unknown
	solveNS, depth := j.solveNS, j.depth
	j.mu.Unlock()
	queue.End()
	dispatch.End()
	if solve != nil {
		solve.SetAttrInt("solved", int64(solved))
		solve.SetAttrInt("unknown", int64(unknown))
		solve.SetAttr("solve_time", attrDuration(time.Duration(solveNS)))
		// The solve span carries the job's summed CDCL provenance, matching
		// the per-check CheckResult fields and the engine's BackendStats.
		solve.SetAttrInt("conflicts", depth.Conflicts)
		solve.SetAttrInt("decisions", depth.Decisions)
		solve.SetAttrInt("restarts", depth.Restarts)
		solve.SetAttrInt("learned", depth.Learned)
		solve.End()
	}
	if cacheHits+dedupHits > 0 {
		c := j.startSpan("cache")
		c.SetAttrInt("hits", int64(cacheHits))
		c.SetAttrInt("dedup", int64(dedupHits))
		c.End()
	}
	j.trace.Finish()
}

// TraceID returns the identifier of the engine-owned trace attached to
// this job, or "" when the caller supplied its own parent span (the trace
// ID is the caller's to report) or telemetry is off.
func (j *Job) TraceID() string { return j.trace.ID() }

// attrDuration renders a duration attribute consistently.
func attrDuration(d time.Duration) string { return fmt.Sprintf("%v", d.Round(time.Microsecond)) }
