// Package engine is the shared execution substrate for Lightyear
// verification: one process-wide bounded worker pool that schedules the
// local checks of all submitted verification workloads, deduplicates
// identical checks across concurrent jobs (singleflight), and serves
// repeated checks from a capacity-bounded LRU result cache.
//
// The design exploits the paper's §2 observation that local checks are
// independent and trivially parallelizable, and goes one step further:
// because checks are keyed by their semantic content (core.Check.Key), a
// WAN property sweep that re-issues byte-identical filter checks for every
// router × property pair solves each distinct formula exactly once, no
// matter how many jobs reference it.
//
// The pipeline per admitted check is
//
//	admission → per-tenant fair queue → LRU (then persistent-tier) probe →
//	in-flight dedup → solver → cache fill → report
//
// Submission is one typed entry point: build a Workload — a safety or
// liveness problem, or a raw check batch, plus the submitting Tenant and a
// Priority — and call Submit. Admission has one door, Reserve:
// Options.Admission bounds how many checks may be in flight (globally and
// per tenant), a multi-job unit (a compiled plan) is reserved as a whole
// and its workloads carry the grant, and a workload without one is
// reserved at its check count by Submit itself. Over-limit work is shed
// *before* entering the shared queue with a typed ErrAdmission carrying a
// RetryAfter hint, and admitted workloads are dispatched weighted-fair
// across tenants so a flooding tenant cannot starve the others.
//
// What a check costs follows what happened to it, not that it was
// enumerated: a cache-served check is a key lookup and a counter, and under
// SubmitOptions.Results == ResultsFailures the job folds passing results
// into exact aggregates and keeps only the failing ones. Nothing the engine
// caches refers back to the plan, network or obligation a result came from.
package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/logging"
	"lightyear/internal/solver"
	"lightyear/internal/telemetry"
)

// DefaultCacheSize is the LRU result-cache capacity used when
// Options.CacheSize is zero.
const DefaultCacheSize = 1 << 16

// Slow-check thresholds: a decided check burning this many conflicts or
// this much solver time is far outside Lightyear's modular fast path and
// earns a structured provenance line in the log. Unknown results always
// do — an undecided check is precisely the event an operator must be able
// to explain.
var (
	slowCheckConflicts int64 = 10000
	slowCheckTime            = 2 * time.Second
)

// Options configures an Engine.
type Options struct {
	// Workers is the size of the worker pool shared by all jobs;
	// 0 means GOMAXPROCS.
	Workers int
	// CacheSize bounds the in-memory LRU result cache (number of cached
	// check results). 0 means DefaultCacheSize; negative disables it
	// (in-flight dedup still applies).
	CacheSize int
	// Cache, when non-nil, is a persistent tier behind the LRU — e.g. an
	// internal/store disk-persistent store, so results survive process
	// restarts. The engine probes it when the LRU misses, copies a hit into
	// the LRU, and hands it every decided result. The engine does not close
	// or flush it; its owner does.
	Cache ResultCache
	// Backend is the default solver backend obligations are routed to;
	// nil means solver.Native. Its spec (native:N, portfolio:N, tiered:N)
	// is the only bound on a solve. Jobs may override it per submission
	// (Workload.SubmitOptions.Backend).
	Backend solver.Backend
	// Admission is the load-shedding policy applied at Submit/Reserve; the
	// zero value admits everything.
	Admission Admission
	// Telemetry, when non-nil, receives the engine's metrics (counters,
	// latency histograms, scheduler gauges) and per-workload traces. Nil
	// disables all emission at zero cost on the hot paths.
	Telemetry *telemetry.Recorder
	// Logger, when non-nil, receives the engine's structured log events —
	// most importantly the slow/Unknown-check lines carrying full solve
	// provenance. Nil disables logging.
	Logger *slog.Logger
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// BackendStats aggregates the work one solver backend performed: how many
// obligations it decided, how many it left Unknown, portfolio racing and
// tiered escalation volume, and time inside the solver.
type BackendStats struct {
	Solved     uint64 `json:"solved"`              // obligations routed to this backend
	Unknown    uint64 `json:"unknown,omitempty"`   // of those, left undecided
	Raced      uint64 `json:"raced,omitempty"`     // solver variants raced (portfolio)
	Escalated  uint64 `json:"escalated,omitempty"` // quick-tier escalations (tiered)
	SolveNanos int64  `json:"solve_ns"`            // summed solver time
	// Solver sums the CDCL search provenance (conflicts, decisions,
	// propagations, restarts, learned clauses) across this backend's solves
	// — the depth dimension behind SolveNanos.
	Solver core.SolveStats `json:"solver"`
}

func (b *BackendStats) add(out solver.Outcome) {
	b.Solved++
	if out.Status == core.StatusUnknown {
		b.Unknown++
	}
	b.Raced += uint64(out.Raced)
	if out.Escalated {
		b.Escalated++
	}
	b.SolveNanos += out.SolveTime.Nanoseconds()
	b.Solver.Add(out.Solver)
}

// Stats is a snapshot of engine counters.
type Stats struct {
	JobsSubmitted   uint64 `json:"jobs_submitted"`
	JobsCompleted   uint64 `json:"jobs_completed"`
	ChecksSubmitted uint64 `json:"checks_submitted"` // checks enqueued across all jobs
	ChecksSolved    uint64 `json:"checks_solved"`    // checks actually executed
	CacheHits       uint64 `json:"cache_hits"`       // results served from the LRU cache or the persistent tier
	DedupHits       uint64 `json:"dedup_hits"`       // results shared via in-flight dedup
	CacheLen        int    `json:"cache_len"`
	CacheCap        int    `json:"cache_cap"`
	// QueuedWorkloads counts admitted workloads awaiting dispatch;
	// InFlightCost is the admitted cost (checks) not yet released.
	QueuedWorkloads int `json:"queued_workloads,omitempty"`
	InFlightCost    int `json:"in_flight_cost,omitempty"`
	// Backends breaks ChecksSolved down by the solver backend that executed
	// them, keyed by backend name.
	Backends map[string]BackendStats `json:"backends,omitempty"`
	// Tenants is the per-tenant admission accounting (admitted, rejected,
	// completed, queued workloads, in-flight cost), keyed by tenant. The
	// map is bounded: under heavy tenant-name churn, fully idle tenants are
	// evicted — counters included — to keep client-chosen names from
	// growing it without limit.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// Engine schedules verification checks on a bounded worker pool with a
// shared result cache. It is safe for concurrent use; create one per
// process and submit all tenants' workloads to it.
type Engine struct {
	opts    Options
	tasks   chan task
	cache   *lruCache      // memory tier; nil when disabled
	store   ResultCache    // persistent tier (Options.Cache); may be nil
	backend solver.Backend // default backend (Options.Backend or native)

	workers sync.WaitGroup

	mu       sync.Mutex
	inflight map[string]*flight

	sched sched // admission + weighted-fair dispatch state (own mutex)

	met *engineMetrics // pre-resolved telemetry handles; emission is nil-safe

	log *slog.Logger // nil disables logging

	statsMu      sync.Mutex
	backendStats map[string]BackendStats

	nextID          atomic.Uint64
	jobsSubmitted   atomic.Uint64
	jobsCompleted   atomic.Uint64
	checksSubmitted atomic.Uint64
	checksSolved    atomic.Uint64
	cacheHits       atomic.Uint64
	dedupHits       atomic.Uint64
	solveNanos      atomic.Int64
}

// task is one check of one job, scheduled on the pool.
type task struct {
	job   *Job
	idx   int
	check core.Check
}

// flight tracks an in-progress solve of one check key; identical tasks
// arriving while it runs attach as waiters and share the result.
type flight struct {
	waiters []task
}

// New starts an engine with its worker pool and dispatcher.
func New(opts Options) *Engine {
	e := &Engine{
		opts:         opts,
		tasks:        make(chan task, 4*opts.workers()),
		inflight:     make(map[string]*flight),
		store:        opts.Cache,
		backend:      opts.Backend,
		backendStats: make(map[string]BackendStats),
	}
	e.log = logging.Component(opts.Logger, "engine")
	if e.backend == nil {
		e.backend = solver.Native(0)
	}
	if opts.CacheSize >= 0 {
		size := opts.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		e.cache = newLRUCache(size)
	}
	e.sched.tenants = make(map[string]*tenantQueue)
	e.sched.cond = sync.NewCond(&e.sched.mu)
	e.sched.done = make(chan struct{})
	e.met = newEngineMetrics(opts.Telemetry, e)
	go e.dispatch()
	for i := 0; i < opts.workers(); i++ {
		e.workers.Add(1)
		go func() {
			defer e.workers.Done()
			for t := range e.tasks {
				e.execute(t)
			}
		}()
	}
	return e
}

// ErrClosed is what Submit and Reserve return once Close has begun.
var ErrClosed = errors.New("engine: closed")

// Close drains queued work and stops the dispatcher and workers. Jobs
// admitted before Close still complete; Submit and Reserve after Close
// return ErrClosed.
func (e *Engine) Close() {
	s := &e.sched
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done // dispatcher drains every queued workload, then exits
	close(e.tasks)
	e.workers.Wait()
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		JobsSubmitted:   e.jobsSubmitted.Load(),
		JobsCompleted:   e.jobsCompleted.Load(),
		ChecksSubmitted: e.checksSubmitted.Load(),
		ChecksSolved:    e.checksSolved.Load(),
		CacheHits:       e.cacheHits.Load(),
		DedupHits:       e.dedupHits.Load(),
	}
	if e.cache != nil {
		s.CacheLen, s.CacheCap = e.cache.Len(), e.cache.capacity
	}
	e.statsMu.Lock()
	if len(e.backendStats) > 0 {
		s.Backends = make(map[string]BackendStats, len(e.backendStats))
		for name, bs := range e.backendStats {
			s.Backends[name] = bs
		}
	}
	e.statsMu.Unlock()
	sc := &e.sched
	sc.mu.Lock()
	s.QueuedWorkloads = sc.queued
	s.InFlightCost = sc.inflight
	if len(sc.tenants) > 0 {
		s.Tenants = make(map[string]TenantStats, len(sc.tenants))
		for name, tq := range sc.tenants {
			s.Tenants[name] = TenantStats{
				Admitted:     tq.admitted,
				Rejected:     tq.rejected,
				Completed:    tq.completed,
				Queued:       len(tq.entries),
				InFlightCost: tq.inflight,
			}
		}
	}
	sc.mu.Unlock()
	return s
}

// ResultsMode selects which check results a job's report materialises.
type ResultsMode string

const (
	// ResultsAll keeps every result in Report.Results; it is the zero
	// value's meaning, so a bare Workload reports in full.
	ResultsAll ResultsMode = "all"
	// ResultsFailures keeps only Fail and Unknown results — with their full
	// witness and their description rendered to text — and folds every OK
	// result into Report.Folded as it arrives, so the job holds nothing
	// sized by its check count.
	ResultsFailures ResultsMode = "failures"
)

// SubmitOptions are per-job execution overrides, embedded in Workload.
type SubmitOptions struct {
	// Backend routes this job's obligations to a specific solver backend
	// instead of the engine default — the hook plan requests use to select
	// portfolio or tiered solving per request on a shared engine.
	Backend solver.Backend
	// Results selects what the report keeps; "" means ResultsAll.
	Results ResultsMode
	// OnResult, when non-nil, observes every completed check, in completion
	// order and one call at a time per job. It runs on an engine worker
	// under the job's lock: it must be quick and must not call back into
	// the job.
	OnResult func(Progress)
}

// Submit is the engine's single submission entry point: it validates the
// workload, generates its checks (for problem payloads), and enqueues it
// for weighted-fair dispatch, returning the running job immediately. The
// job runs under the workload's Reservation or, without one, under a grant
// of its check count that Submit reserves (a *ErrAdmission on refusal) and
// the job releases when it finishes. ctx is attached to the job's solves:
// cancelling it makes remaining checks finish as Unknown (never cached)
// instead of burning solver budget. After Close it returns ErrClosed.
func (e *Engine) Submit(ctx context.Context, w Workload) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prop, checks, err := w.resolve()
	if err != nil {
		return nil, err
	}
	backend := w.Backend
	if backend == nil {
		backend = e.backend
	}
	tenant := NormalizeTenant(w.Tenant)
	if w.Results != "" && w.Results != ResultsAll && w.Results != ResultsFailures {
		return nil, fmt.Errorf("engine: unknown results mode %q (want %q or %q)", w.Results, ResultsAll, ResultsFailures)
	}
	if w.Reservation != nil && w.Reservation.tenant != tenant {
		return nil, fmt.Errorf("engine: workload tenant %q does not match reservation tenant %q",
			tenant, w.Reservation.tenant)
	}

	s := &e.sched
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	var grant *Reservation // owned by the job
	if w.Reservation == nil {
		if grant, err = e.reserveLocked(tenant, len(checks)); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	} else if w.Reservation.released {
		s.mu.Unlock()
		return nil, fmt.Errorf("engine: submit under an already-released reservation")
	}
	j := newJob(e, e.nextID.Add(1), ctx, prop, len(checks), backend, tenant, w.Priority, grant)
	j.failuresOnly, j.onResult = w.Results == ResultsFailures, w.OnResult
	if !j.failuresOnly {
		j.results = make([]core.CheckResult, len(checks))
	}
	j.startJobTelemetry(w.TraceSpan)
	e.jobsSubmitted.Add(1)
	e.met.jobsSubmitted.Inc()
	e.checksSubmitted.Add(uint64(len(checks)))
	e.met.checksSubmitted.Add(uint64(len(checks)))
	if len(checks) == 0 {
		s.mu.Unlock()
		j.finish()
		return j, nil
	}
	s.enqueueLocked(s.tenant(tenant, e.opts.Admission), &dispatchEntry{job: j, checks: checks, priority: w.Priority})
	s.mu.Unlock()
	return j, nil
}

// execute runs one scheduled task through the cache → dedup → solve
// pipeline.
func (e *Engine) execute(t task) {
	key := t.check.Key()
	if key == "" {
		// Uncacheable check: always solve.
		out := e.solve(t)
		t.job.deliver(t.idx, out.CheckResult, false, false, &out)
		return
	}
	if r, ok := e.lookup(key); ok {
		e.cacheHits.Add(1)
		e.met.cacheHit.Inc()
		t.job.deliver(t.idx, adapt(r, t.check), true, false, nil)
		return
	}
	e.mu.Lock()
	if f, ok := e.inflight[key]; ok {
		// An identical check is being solved right now: wait for its
		// result instead of occupying a worker.
		f.waiters = append(f.waiters, t)
		e.mu.Unlock()
		return
	}
	// Re-probe the cache under the lock: a flight for this key may have
	// filled the cache and retired between the lock-free probe above and
	// acquiring e.mu, and solving again here would be redundant.
	if r, ok := e.lookup(key); ok {
		e.mu.Unlock()
		e.cacheHits.Add(1)
		e.met.cacheHit.Inc()
		t.job.deliver(t.idx, adapt(r, t.check), true, false, nil)
		return
	}
	f := &flight{}
	e.inflight[key] = f
	e.mu.Unlock()

	out := e.solve(t)
	r := out.CheckResult
	if r.Status != core.StatusUnknown {
		// Fill the cache before retiring the flight so a concurrent
		// identical task either joins the flight or hits the cache.
		// Unknown is not a verdict, so it is never cached: a later job with
		// a bigger budget (or a stronger backend) must get to re-solve.
		e.fill(key, r)
	}
	e.mu.Lock()
	delete(e.inflight, key)
	waiters := f.waiters
	f.waiters = nil
	e.mu.Unlock()

	t.job.deliver(t.idx, r, false, false, &out)
	e.deliverWaiters(key, r, t, waiters)
}

// lookup probes the memory tier, then the persistent one, copying a
// persistent hit into memory so the next probe of the key stops there.
func (e *Engine) lookup(key string) (core.CheckResult, bool) {
	if e.cache != nil {
		if r, ok := e.cache.Get(key); ok {
			return r, true
		}
	}
	if e.store == nil {
		return core.CheckResult{}, false
	}
	r, ok := e.store.Get(key)
	if ok && e.cache != nil {
		e.cache.Add(key, r)
	}
	return r, ok
}

// fill records a decided result in both tiers.
func (e *Engine) fill(key string, r core.CheckResult) {
	r = r.Anonymous()
	if e.cache != nil {
		e.cache.Add(key, r)
	}
	if e.store != nil {
		e.store.Add(key, r)
	}
}

// deliverWaiters hands a completed solve's result to the tasks that
// coalesced onto its flight. A decided result is shared with everyone. An
// Unknown is not a verdict: it is shared only with waiters whose solve
// would be configured identically — same backend configuration — AND only
// when the solve ran under a live context — since only
// then would an identical attempt reproduce the give-up. An Unknown caused
// by the solving job's cancelled submission context says nothing about the
// formula, so waiters from live jobs always re-solve it. Re-solves happen
// once per distinct configuration, with the first decided re-solve cached
// and shared with every remaining waiter.
func (e *Engine) deliverWaiters(key string, r core.CheckResult, t task, waiters []task) {
	// Outcomes of re-solves so far: the first decided one, plus per-config
	// Unknowns so identically-configured waiters do not repeat a failed
	// attempt.
	var decided *core.CheckResult
	type gaveUp struct {
		backend solver.Backend
		result  core.CheckResult
	}
	var unknowns []gaveUp
	for _, w := range waiters {
		if r.Status != core.StatusUnknown || decided != nil {
			shared := r
			if decided != nil {
				shared = *decided
			}
			e.dedupHits.Add(1)
			e.met.dedupHit.Inc()
			w.job.deliver(w.idx, adapt(shared, w.check), false, true, nil)
			continue
		}
		if t.job.ctx.Err() == nil && solver.SameConfig(w.job.backend, t.job.backend) {
			e.dedupHits.Add(1)
			e.met.dedupHit.Inc()
			w.job.deliver(w.idx, adapt(r, w.check), false, true, nil)
			continue
		}
		prior := -1
		for i := range unknowns {
			if solver.SameConfig(w.job.backend, unknowns[i].backend) {
				prior = i
				break
			}
		}
		if prior >= 0 {
			e.dedupHits.Add(1)
			e.met.dedupHit.Inc()
			w.job.deliver(w.idx, adapt(unknowns[prior].result, w.check), false, true, nil)
			continue
		}
		wout := e.solve(w)
		if wout.Status != core.StatusUnknown {
			e.fill(key, wout.CheckResult)
			decided = &wout.CheckResult
		} else if w.job.ctx.Err() == nil {
			// Only a live job's give-up is representative of the
			// configuration; a cancelled job's Unknown is not replayed to
			// later waiters.
			unknowns = append(unknowns, gaveUp{backend: w.job.backend, result: wout.CheckResult})
		}
		w.job.deliver(w.idx, wout.CheckResult, false, false, &wout)
	}
}

// solve routes one task's obligation to its job's solver backend and
// records per-backend accounting. Results are stamped with the running
// check's identity (relabeled checks share obligations with rewritten
// identities, and the backend reports the obligation's own). The backend
// solves under its own configured budget, and under the job's submission
// context, so cancelling the job turns its remaining checks into Unknowns.
func (e *Engine) solve(t task) solver.Outcome {
	e.checksSolved.Add(1)
	backend := t.job.backend
	t.job.ensureSolveSpan(backend.Name())
	t0 := time.Now()
	out := e.backendSolve(t.job.ctx, backend, t)
	if out.TotalTime == 0 {
		out.TotalTime = time.Since(t0)
	}
	out.Kind, out.Loc, out.Desc = t.check.Kind, t.check.Loc, t.check.Desc
	e.solveNanos.Add(out.SolveTime.Nanoseconds())

	e.statsMu.Lock()
	bs := e.backendStats[backend.Name()]
	bs.add(out)
	e.backendStats[backend.Name()] = bs
	e.statsMu.Unlock()
	e.met.solveDone(backend.Name(), out)
	e.logSlowCheck(t, out)
	return out
}

// backendSolve calls the backend on one task's obligation. A panic in the
// backend is a defect, not a verdict: the check becomes StatusUnknown with
// the panic value in its note (so it is never cached), the stack goes to the
// engine log, and the worker lives on.
func (e *Engine) backendSolve(ctx context.Context, backend solver.Backend, t task) (out solver.Outcome) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		out = solver.Outcome{CheckResult: core.CheckResult{Status: core.StatusUnknown, Backend: backend.Name(),
			Counterexample: &core.Counterexample{Note: fmt.Sprintf("solve panicked (unknown): %v", v)}}}
		if e.log != nil {
			e.log.LogAttrs(ctx, slog.LevelError, "solve panicked",
				slog.Uint64(logging.KeyJob, t.job.ID),
				slog.String(logging.KeyTenant, t.job.Tenant),
				slog.String(logging.KeyTraceID, t.job.TraceID()),
				slog.String("backend", backend.Name()),
				slog.String("key", t.check.Key()),
				slog.String("panic", fmt.Sprint(v)),
				slog.String("stack", string(debug.Stack())),
			)
		}
	}()
	return backend.Solve(ctx, t.check.Obligation(), solver.Budget{})
}

// logSlowCheck emits the structured provenance line for checks that were
// slow, search-heavy, or undecided. Unknowns always log (at warn); slow but
// decided checks log at info. The line carries the identical counters the
// check's CheckResult, the solve span's attrs, and /v1/status report, so an
// operator can pivot between the three by job and check identity.
func (e *Engine) logSlowCheck(t task, out solver.Outcome) {
	if e.log == nil {
		return
	}
	unknown := out.Status == core.StatusUnknown
	slow := out.Solver.Conflicts >= slowCheckConflicts || out.SolveTime >= slowCheckTime
	if !unknown && !slow {
		return
	}
	msg, level := "slow check", slog.LevelInfo
	if unknown {
		msg, level = "check undecided", slog.LevelWarn
	}
	e.log.LogAttrs(t.job.ctx, level, msg,
		slog.Uint64(logging.KeyJob, t.job.ID),
		slog.String(logging.KeyTenant, t.job.Tenant),
		slog.String(logging.KeyTraceID, t.job.TraceID()),
		slog.String("backend", out.Backend),
		slog.String("kind", t.check.Kind.String()),
		slog.String("loc", t.check.Loc.String()),
		slog.String("desc", t.check.Desc.String()),
		slog.String("status", out.Status.String()),
		slog.Int64("conflicts", out.Solver.Conflicts),
		slog.Int64("decisions", out.Solver.Decisions),
		slog.Int64("propagations", out.Solver.Propagations),
		slog.Int64("restarts", out.Solver.Restarts),
		slog.Int64("learned", out.Solver.Learned),
		slog.Int("vars", out.NumVars),
		slog.Int("clauses", out.NumCons),
		slog.Int("terms", out.NumTerms),
		slog.Duration("solve_time", out.SolveTime),
	)
}

// Live reports whether the engine's dispatcher is still accepting and
// draining work — false once Close has begun. Readiness probes use it.
func (e *Engine) Live() bool {
	e.sched.mu.Lock()
	defer e.sched.mu.Unlock()
	return !e.sched.closed
}

// adapt relabels a shared result with the identity of the receiving check.
// Checks with equal keys decide the same formula, so verdict, witness, and
// formula statistics carry over; Kind/Loc/Desc are per-check presentation.
func adapt(r core.CheckResult, c core.Check) core.CheckResult {
	r.Kind, r.Loc, r.Desc = c.Kind, c.Loc, c.Desc
	return r
}

// String renders a one-line summary of the engine configuration.
func (e *Engine) String() string {
	cap := -1
	if e.cache != nil {
		cap = e.cache.capacity
	}
	return fmt.Sprintf("engine(workers=%d, cache=%d)", e.opts.workers(), cap)
}
