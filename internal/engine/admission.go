package engine

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"lightyear/internal/core"
)

// DefaultTenant is the principal workloads are accounted to when they name
// no tenant of their own.
const DefaultTenant = "default"

// NormalizeTenant maps the empty tenant to DefaultTenant.
func NormalizeTenant(t string) string {
	if t == "" {
		return DefaultTenant
	}
	return t
}

// Admission is the engine's load-shedding policy: workloads are admitted or
// rejected *before* their checks enter the shared queue, so saturation
// surfaces as an explicit, typed ErrAdmission (HTTP 429 in lyserve) instead
// of unbounded queueing behind saturated workers. The zero value admits
// everything (per-tenant accounting still runs, so Stats report per-tenant
// traffic even on unlimited engines).
type Admission struct {
	// MaxInFlightChecks caps the total admitted cost (checks) across all
	// tenants that has not yet completed; 0 means unlimited.
	MaxInFlightChecks int
	// PerTenantQuota caps one tenant's admitted, uncompleted cost; 0 means
	// unlimited.
	PerTenantQuota int
	// MaxQueueDepth caps the number of individually submitted workloads
	// awaiting dispatch; 0 means unlimited. Workloads under a Reservation
	// are exempt — their unit was admitted as a whole.
	MaxQueueDepth int
	// Weights are per-tenant weighted-fair dispatch weights (default 1): a
	// tenant with weight 2 dequeues twice the checks per round-robin turn.
	Weights map[string]int
}

// ParseWeights parses the -tenant-weights command-line form shared by
// lyserve and lightyear — "t1=3,t2=1" — into an Admission.Weights map.
// Weights must be positive integers; an empty spec yields a nil map
// (every tenant weighs 1).
func ParseWeights(spec string) (map[string]int, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("bad weight %q, want tenant=N", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad weight %q: want a positive integer, got %q", part, val)
		}
		weights[name] = w
	}
	if len(weights) == 0 {
		return nil, nil
	}
	return weights, nil
}

// ErrAdmission is the typed rejection the admission layer returns: the
// tenant, the cost that was asked for, the limit that refused it, and a
// backoff hint derived from the engine's observed per-check solve time.
// Hosts map it to their backpressure surface (lyserve: HTTP 429 with a
// Retry-After header; lightyear: a non-zero exit with the hint).
type ErrAdmission struct {
	Tenant     string
	Cost       int
	Limit      int
	Reason     string // which limit refused: "tenant quota" | "engine in-flight" | "queue depth"
	RetryAfter time.Duration
	// Permanent marks a request whose cost exceeds the limit outright —
	// even an idle engine could never admit it, so retrying (at this cost)
	// cannot succeed; split the request or raise the limit instead.
	Permanent bool
}

func (e *ErrAdmission) Error() string {
	if e.Permanent {
		return fmt.Sprintf("admission rejected for tenant %q: cost %d can never fit %s limit %d; split the request or raise the limit",
			e.Tenant, e.Cost, e.Reason, e.Limit)
	}
	return fmt.Sprintf("admission rejected for tenant %q: cost %d over %s limit %d (retry after %v)",
		e.Tenant, e.Cost, e.Reason, e.Limit, e.RetryAfter.Round(time.Millisecond))
}

// Reservation is an admission grant for a multi-job unit — typically one
// compiled plan, whose whole check count (plan.Compiled.Cost) is admitted
// up front so a request is either fully admitted or fully rejected, never
// half-run. The reservation holds its cost against the tenant's quota and
// the engine budget until Release; workloads submitted with it skip
// per-workload admission. Release is idempotent.
type Reservation struct {
	e        *Engine
	tenant   string
	cost     int
	released bool // guarded by e.sched.mu
}

// Tenant returns the principal the reservation is charged to.
func (r *Reservation) Tenant() string { return r.tenant }

// Cost returns the admitted cost.
func (r *Reservation) Cost() int { return r.cost }

// Release returns the reservation's cost to the tenant's quota and the
// engine budget. Safe to call more than once, and on a nil reservation.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	s := &r.e.sched
	s.mu.Lock()
	if !r.released {
		r.released = true
		tq := s.tenant(r.tenant, r.e.opts.Admission)
		tq.inflight -= r.cost
		s.inflight -= r.cost
	}
	s.mu.Unlock()
}

// Reserve admits cost checks for tenant as one unit ahead of the workloads
// that will perform them. On success the cost is held until the returned
// reservation is released; on rejection it returns ErrAdmission and
// records the rejection in the tenant's counters.
func (e *Engine) Reserve(tenant string, cost int) (*Reservation, error) {
	if cost < 0 {
		return nil, fmt.Errorf("engine: reservation cost must be >= 0, got %d", cost)
	}
	t := NormalizeTenant(tenant)
	s := &e.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		panic("engine: Reserve after Close")
	}
	tq := s.tenant(t, e.opts.Admission)
	if err := e.checkLimitsLocked(tq, cost); err != nil {
		tq.rejected++
		if ea, ok := err.(*ErrAdmission); ok {
			e.met.rejected(ea.Tenant, ea.Reason)
		}
		return nil, err
	}
	tq.inflight += cost
	s.inflight += cost
	tq.admitted++
	return &Reservation{e: e, tenant: t, cost: cost}, nil
}

// AdmitProbe reports whether a unit of the given cost would be admitted for
// tenant right now, without reserving anything. A rejection is counted in
// the tenant's counters (the caller is shedding the request); admission is
// not, since nothing was granted. Hosts that cannot hold a reservation
// across an asynchronous boundary (lyserve session creation, whose
// baseline run re-admits inside the session worker) use it for an early
// 429.
func (e *Engine) AdmitProbe(tenant string, cost int) error {
	if cost < 0 {
		return fmt.Errorf("engine: probe cost must be >= 0, got %d", cost)
	}
	t := NormalizeTenant(tenant)
	s := &e.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	tq := s.tenant(t, e.opts.Admission)
	if err := e.checkLimitsLocked(tq, cost); err != nil {
		tq.rejected++
		if ea, ok := err.(*ErrAdmission); ok {
			e.met.rejected(ea.Tenant, ea.Reason)
		}
		return err
	}
	return nil
}

// checkLimitsLocked applies the quota and in-flight limits (not queue
// depth); sched.mu is held.
func (e *Engine) checkLimitsLocked(tq *tenantQueue, cost int) error {
	a := e.opts.Admission
	if a.PerTenantQuota > 0 && tq.inflight+cost > a.PerTenantQuota {
		return e.admissionErrorLocked(tq.name, cost, a.PerTenantQuota, "tenant quota", tq.inflight+cost-a.PerTenantQuota)
	}
	if a.MaxInFlightChecks > 0 && e.sched.inflight+cost > a.MaxInFlightChecks {
		return e.admissionErrorLocked(tq.name, cost, a.MaxInFlightChecks, "engine in-flight", e.sched.inflight+cost-a.MaxInFlightChecks)
	}
	return nil
}

// admitLocked is the per-workload admission decision made by Submit;
// sched.mu is held. Reserved workloads were admitted with their unit.
func (e *Engine) admitLocked(tq *tenantQueue, cost int, resv *Reservation) error {
	if resv != nil {
		if resv.released {
			return fmt.Errorf("engine: submit under an already-released reservation")
		}
		return nil
	}
	a := e.opts.Admission
	if a.MaxQueueDepth > 0 && e.sched.queued >= a.MaxQueueDepth {
		tq.rejected++
		return e.admissionErrorLocked(tq.name, cost, a.MaxQueueDepth, "queue depth", cost)
	}
	if err := e.checkLimitsLocked(tq, cost); err != nil {
		tq.rejected++
		return err
	}
	tq.inflight += cost
	e.sched.inflight += cost
	tq.admitted++
	return nil
}

// admissionErrorLocked builds the typed rejection, estimating RetryAfter
// as the time the worker pool needs to work off everything standing
// between the rejected request and admission: the capacity deficit plus
// the cost already admitted but still queued ahead of the dispatcher
// (sched.queuedCost). A freshly admitted burst holds capacity long before
// any of it solves, so ignoring queued-ahead cost — as the estimate did
// before — told clients to retry while the backlog was still untouched.
// The per-check time is the engine's observed mean solve time.
func (e *Engine) admissionErrorLocked(tenant string, cost, limit int, reason string, deficit int) *ErrAdmission {
	avg := 50 * time.Millisecond
	if solved := e.checksSolved.Load(); solved > 0 {
		if observed := time.Duration(e.solveNanos.Load() / int64(solved)); observed > 0 {
			avg = observed
		}
	}
	if deficit < 1 {
		deficit = 1
	}
	backlog := deficit + e.sched.queuedCost
	retry := avg * time.Duration(backlog) / time.Duration(e.opts.workers())
	if retry < 100*time.Millisecond {
		retry = 100 * time.Millisecond
	}
	if retry > 30*time.Second {
		retry = 30 * time.Second
	}
	return &ErrAdmission{Tenant: tenant, Cost: cost, Limit: limit, Reason: reason,
		RetryAfter: retry,
		// cost > limit cannot be cured by waiting (queue depth is counted
		// in workloads, not cost, so it is always transient).
		Permanent: reason != "queue depth" && cost > limit,
	}
}

// TenantStats is one tenant's admission and traffic accounting.
type TenantStats struct {
	Admitted     uint64 `json:"admitted"`                 // workloads/reservations granted
	Rejected     uint64 `json:"rejected,omitempty"`       // admission rejections
	Completed    uint64 `json:"completed,omitempty"`      // jobs finished
	Queued       int    `json:"queued,omitempty"`         // workloads awaiting dispatch
	InFlightCost int    `json:"in_flight_cost,omitempty"` // admitted cost not yet released
}

// dispatchQuantum is the number of checks one tenant of weight 1 may
// dispatch per round-robin turn (deficit round-robin over tenants).
const dispatchQuantum = 16

// maxTrackedTenants bounds the per-tenant accounting map. Tenant names are
// client-chosen (lyserve's X-Tenant header), so without a bound a client
// cycling fresh names would grow the engine's memory and Stats output
// forever. When registering a tenant would exceed the bound, fully idle
// tenants — nothing queued, nothing in flight — are evicted, counters
// included; tenants with live work are never evicted.
const maxTrackedTenants = 1024

// tenantQueue is one tenant's scheduler state: its pending workloads
// (priority-ordered), deficit-round-robin credit, and admission counters.
// All fields are guarded by sched.mu.
type tenantQueue struct {
	name    string
	weight  int
	deficit int
	active  bool // member of sched.active
	entries []*dispatchEntry

	inflight  int // admitted cost not yet released
	admitted  uint64
	rejected  uint64
	completed uint64
}

// dispatchEntry is one admitted workload waiting to be dispatched.
type dispatchEntry struct {
	job      *Job
	checks   []core.Check
	priority int
	next     int // next check index to dispatch
}

// sched is the engine's admission + weighted-fair dispatch state: admitted
// workloads queue per tenant, and a single dispatcher goroutine feeds the
// worker pool by deficit round-robin across tenants, so one tenant
// flooding the engine cannot starve another — the fairness half of the
// admission story (shedding is the other half).
type sched struct {
	mu         sync.Mutex
	cond       *sync.Cond
	closed     bool
	tenants    map[string]*tenantQueue
	active     []*tenantQueue // tenants with pending entries, round-robin order
	rr         int
	queued     int // entries not yet fully dispatched
	queuedCost int // checks admitted but not yet handed to the worker pool
	inflight   int // admitted cost not yet released, across tenants
	done       chan struct{}
}

// tenant returns (creating if needed) the tenant's queue; sched.mu is held.
// Registrations beyond maxTrackedTenants first evict idle tenants, so
// client-chosen tenant names cannot grow the map without bound.
func (s *sched) tenant(name string, a Admission) *tenantQueue {
	tq, ok := s.tenants[name]
	if !ok {
		if len(s.tenants) >= maxTrackedTenants {
			for n, q := range s.tenants {
				if !q.active && len(q.entries) == 0 && q.inflight == 0 {
					delete(s.tenants, n)
				}
			}
		}
		w := a.Weights[name]
		if w <= 0 {
			w = 1
		}
		tq = &tenantQueue{name: name, weight: w}
		s.tenants[name] = tq
	}
	return tq
}

// enqueueLocked inserts an admitted workload into its tenant's queue,
// keeping entries ordered by priority (descending, FIFO among equals), and
// wakes the dispatcher; sched.mu is held.
func (s *sched) enqueueLocked(tq *tenantQueue, ent *dispatchEntry) {
	i := len(tq.entries)
	for i > 0 && tq.entries[i-1].priority < ent.priority {
		i--
	}
	tq.entries = append(tq.entries, nil)
	copy(tq.entries[i+1:], tq.entries[i:])
	tq.entries[i] = ent
	s.queued++
	s.queuedCost += len(ent.checks)
	if !tq.active {
		tq.active = true
		s.active = append(s.active, tq)
	}
	s.cond.Signal()
}

// dispatch is the engine's single dispatcher goroutine: deficit round-robin
// across tenants with pending workloads, sending one check at a time into
// the bounded task channel (the blocking send is the backpressure that
// keeps the fair order meaningful — workers pull from a short buffer, not
// an unbounded FIFO). Within a tenant, higher-priority workloads drain
// first. The dispatcher exits only when the engine is closed and every
// queued workload has been dispatched, preserving Close's drain semantics.
func (e *Engine) dispatch() {
	s := &e.sched
	defer close(s.done)
	s.mu.Lock()
	for {
		for len(s.active) == 0 {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		if s.rr >= len(s.active) {
			s.rr = 0
		}
		tq := s.active[s.rr]
		tq.deficit += dispatchQuantum * tq.weight
		for tq.deficit > 0 && len(tq.entries) > 0 {
			ent := tq.entries[0]
			idx := ent.next
			c := ent.checks[idx]
			ent.next++
			if ent.next == len(ent.checks) {
				// Drop the batch with the entry: the queue's backing array
				// would otherwise keep a drained job's checks reachable.
				ent.checks, tq.entries[0] = nil, nil
				tq.entries = tq.entries[1:]
				s.queued--
			}
			tq.deficit--
			s.queuedCost--
			s.mu.Unlock()
			if idx == 0 {
				ent.job.markDispatched(time.Now())
			}
			e.tasks <- task{job: ent.job, idx: idx, check: c}
			if ent.checks == nil {
				ent.job.spanDrained()
			}
			s.mu.Lock()
		}
		if len(tq.entries) == 0 {
			tq.deficit = 0
			tq.active = false
			s.active = append(s.active[:s.rr], s.active[s.rr+1:]...)
			// rr now indexes the next tenant (or wraps at the loop top).
		} else {
			s.rr++
		}
	}
}

// jobDone releases a finished job's admission cost (unless a reservation
// holds it) and counts the completion.
func (e *Engine) jobDone(j *Job) {
	s := &e.sched
	s.mu.Lock()
	tq := s.tenant(j.Tenant, e.opts.Admission)
	tq.completed++
	if j.reservation == nil && j.Cost > 0 {
		tq.inflight -= j.Cost
		s.inflight -= j.Cost
	}
	s.mu.Unlock()
}
