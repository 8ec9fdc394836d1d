package engine

import (
	"context"
	"sync"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/solver"
	"lightyear/internal/telemetry"
)

// Progress is one completed check, as SubmitOptions.OnResult observes it.
type Progress struct {
	JobID     uint64
	Index     int // the check's position in the submitted batch
	Completed int // checks completed so far, including this one
	Total     int
	FromCache bool // served from the LRU result cache
	Deduped   bool // coalesced with an in-flight identical check
	Result    core.CheckResult
}

// JobStats summarizes how a job's checks were satisfied: cache/dedup reuse,
// admission accounting (tenant, cost, time spent queued behind the fair
// dispatcher), and — for checks this job actually solved — the per-backend
// accounting of the solver backend the job was routed to.
type JobStats struct {
	Checks    int `json:"checks"`
	Completed int `json:"completed"`
	CacheHits int `json:"cache_hits"`
	DedupHits int `json:"dedup_hits"`

	// Tenant is the principal the job was admitted under; Cost its admission
	// cost; QueueWaitNanos the time between admission and the dispatch of
	// its first check (0 for empty jobs).
	Tenant         string `json:"tenant,omitempty"`
	Cost           int    `json:"cost,omitempty"`
	QueueWaitNanos int64  `json:"queue_wait_ns,omitempty"`

	// Backend names the solver backend this job's solved checks ran on.
	Backend string `json:"backend,omitempty"`
	// Solved counts checks this job executed itself (not served from cache
	// or coalesced with another job's in-flight solve).
	Solved int `json:"solved"`
	// Unknown counts results left undecided (budget exhausted/cancelled),
	// whether solved here or adapted from another job.
	Unknown int `json:"unknown,omitempty"`
	// Raced sums the portfolio variants raced across this job's solves.
	Raced int `json:"raced,omitempty"`
	// Escalated counts tiered quick-budget escalations.
	Escalated int `json:"escalated,omitempty"`
	// SolveNanos sums solver time across this job's own solves.
	SolveNanos int64 `json:"solve_ns,omitempty"`
	// Solver sums the CDCL search provenance across this job's own solves —
	// the same counters each CheckResult carries per check.
	Solver core.SolveStats `json:"solver"`
}

// QueueWait returns the job's time-in-queue as a duration.
func (s JobStats) QueueWait() time.Duration { return time.Duration(s.QueueWaitNanos) }

// Job is one admitted workload running on the engine. Obtain the final
// report with Wait; watch per-check completion with SubmitOptions.OnResult.
type Job struct {
	ID       uint64
	Property core.Property
	// Tenant, Priority, and Cost mirror the submitted Workload's admission
	// identity.
	Tenant   string
	Priority int
	Cost     int

	engine      *Engine
	ctx         context.Context
	total       int
	start       time.Time
	backend     solver.Backend
	reservation *Reservation

	failuresOnly bool           // ResultsFailures: keep non-OK results, fold the rest
	onResult     func(Progress) // SubmitOptions.OnResult

	mu         sync.Mutex
	results    []core.CheckResult // by check index (ResultsAll) or non-OK in arrival order
	folded     core.Folded        // OK results counted instead of kept
	completed  int
	cacheHits  int
	dedupHits  int
	solved     int
	unknown    int
	raced      int
	escalated  int
	solveNS    int64
	depth      core.SolveStats // summed provenance of this job's own solves
	dispatched time.Time       // when the dispatcher sent the first check

	// Tracing state (see telemetry.go): span is the caller-provided parent
	// (a plan run's per-problem span), trace an engine-owned trace when no
	// parent was given; the pipeline spans record under whichever is set.
	trace        *telemetry.Trace
	span         *telemetry.Span
	queueSpan    *telemetry.Span
	dispatchSpan *telemetry.Span
	solveSpan    *telemetry.Span
	solveSpanSet bool

	done   chan struct{}
	report *core.Report
}

func newJob(e *Engine, id uint64, ctx context.Context, prop core.Property, total int,
	backend solver.Backend, tenant string, priority, cost int, resv *Reservation) *Job {
	return &Job{
		ID:          id,
		Property:    prop,
		Tenant:      tenant,
		Priority:    priority,
		Cost:        cost,
		engine:      e,
		ctx:         ctx,
		total:       total,
		start:       time.Now(),
		backend:     backend,
		reservation: resv,
		done:        make(chan struct{}),
	}
}

// Done returns a channel closed when the job's report is ready.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until all checks complete and returns the assembled report.
func (j *Job) Wait() *core.Report {
	<-j.done
	return j.report
}

// markDispatched records when the fair dispatcher released the job's first
// check to the worker pool — the end of its queue wait.
func (j *Job) markDispatched(t time.Time) {
	j.mu.Lock()
	first := j.dispatched.IsZero()
	if first {
		j.dispatched = t
	}
	j.mu.Unlock()
	if first {
		j.engine.met.queueWait.Observe(t.Sub(j.start).Seconds())
		j.spanDispatched()
	}
}

// Stats returns a snapshot of the job's check accounting.
func (j *Job) Stats() JobStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	var wait int64
	if !j.dispatched.IsZero() {
		wait = j.dispatched.Sub(j.start).Nanoseconds()
	}
	return JobStats{
		Checks: j.total, Completed: j.completed,
		CacheHits: j.cacheHits, DedupHits: j.dedupHits,
		Tenant: j.Tenant, Cost: j.Cost, QueueWaitNanos: wait,
		Backend: j.backend.Name(),
		Solved:  j.solved, Unknown: j.unknown,
		Raced: j.raced, Escalated: j.escalated, SolveNanos: j.solveNS,
		Solver: j.depth,
	}
}

// deliver records one completed check and finishes the job when it is the
// last one. out carries the solver outcome when this job executed the check
// itself (nil for cache/dedup deliveries). Called from engine workers.
func (j *Job) deliver(idx int, r core.CheckResult, cached, deduped bool, out *solver.Outcome) {
	j.mu.Lock()
	switch {
	case !j.failuresOnly:
		j.results[idx] = r
	case r.OK:
		j.folded.Add(&r)
	default:
		r.Desc = r.Desc.Rendered()
		j.results = append(j.results, r)
	}
	j.completed++
	if cached {
		j.cacheHits++
	}
	if deduped {
		j.dedupHits++
	}
	if r.Status == core.StatusUnknown {
		j.unknown++
	}
	if out != nil {
		j.solved++
		j.raced += out.Raced
		if out.Escalated {
			j.escalated++
		}
		j.solveNS += out.SolveTime.Nanoseconds()
		j.depth.Add(out.Solver)
	}
	completed := j.completed
	if j.onResult != nil {
		j.onResult(Progress{JobID: j.ID, Index: idx, Completed: completed, Total: j.total,
			FromCache: cached, Deduped: deduped, Result: r})
	}
	j.mu.Unlock()

	if completed == j.total {
		j.finish()
	}
}

// finish assembles the deterministic report, releases the job's admission
// cost, and releases waiters.
func (j *Job) finish() {
	j.report = core.NewReport(j.Property, j.results, time.Since(j.start))
	j.report.Folded = j.folded
	j.results = nil
	j.engine.jobsCompleted.Add(1)
	j.engine.met.jobsCompleted.Inc()
	j.finishJobTelemetry()
	j.engine.jobDone(j)
	close(j.done)
}
