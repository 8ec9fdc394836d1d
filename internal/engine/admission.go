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

// Admission is the engine's load-shedding policy: work is admitted or
// rejected *before* its checks enter the shared queue, so saturation
// surfaces as an explicit, typed ErrAdmission (HTTP 429 in lyserve) instead
// of unbounded queueing behind saturated workers. The zero value admits
// everything (per-tenant accounting still runs, so Stats report per-tenant
// traffic even on unlimited engines).
type Admission struct {
	// MaxInFlightChecks caps the total admitted cost (checks) across all
	// tenants that has not yet been released; 0 means unlimited.
	MaxInFlightChecks int
	// PerTenantQuota caps one tenant's admitted, unreleased cost; 0 means
	// unlimited.
	PerTenantQuota int
	// Weights are per-tenant weighted-fair dispatch weights (default 1): a
	// tenant with weight 2 dequeues twice the checks per round-robin turn.
	Weights map[string]int
}

// ParseWeights parses lyserve's -tenant-weights command-line form —
// "t1=3,t2=1" — into an Admission.Weights map.
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
	Reason     string // which limit refused: "tenant quota" | "engine in-flight"
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

// Reservation is an admission grant, and every workload runs under exactly
// one: its unit's — typically a compiled plan reserved whole at
// plan.Compiled.Cost, so a request is fully admitted or fully rejected —
// or, when it carries none, one Submit takes for its check count and its
// job releases. A grant holds its cost against the tenant's quota and the
// engine budget until Release, which is idempotent.
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
	r.e.sched.mu.Lock()
	r.releaseLocked()
	r.e.sched.mu.Unlock()
}

// releaseLocked is Release with sched.mu held.
func (r *Reservation) releaseLocked() {
	if r.released {
		return
	}
	r.released = true
	s := &r.e.sched
	s.tenant(r.tenant, r.e.opts.Admission).inflight -= r.cost
	s.inflight -= r.cost
}

// Reserve admits cost checks for tenant as one unit ahead of the workloads
// that will perform them. On success the cost is held until the returned
// reservation is released; on rejection it returns ErrAdmission and
// records the rejection in the tenant's counters. After Close it returns
// ErrClosed.
func (e *Engine) Reserve(tenant string, cost int) (*Reservation, error) {
	if cost < 0 {
		return nil, fmt.Errorf("engine: reservation cost must be >= 0, got %d", cost)
	}
	s := &e.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return e.reserveLocked(NormalizeTenant(tenant), cost)
}

// reserveLocked is the engine's one admission decision, made for Reserve
// and for every Submit without a Reservation; sched.mu is held and tenant
// is normalized.
func (e *Engine) reserveLocked(tenant string, cost int) (*Reservation, error) {
	a := e.opts.Admission
	tq := e.sched.tenant(tenant, a)
	var ea *ErrAdmission
	switch {
	case a.PerTenantQuota > 0 && tq.inflight+cost > a.PerTenantQuota:
		ea = e.admissionErrorLocked(tenant, cost, a.PerTenantQuota, "tenant quota", tq.inflight+cost-a.PerTenantQuota)
	case a.MaxInFlightChecks > 0 && e.sched.inflight+cost > a.MaxInFlightChecks:
		ea = e.admissionErrorLocked(tenant, cost, a.MaxInFlightChecks, "engine in-flight", e.sched.inflight+cost-a.MaxInFlightChecks)
	}
	if ea != nil {
		tq.rejected++
		e.met.rejected(tenant, ea.Reason)
		return nil, ea
	}
	tq.inflight += cost
	e.sched.inflight += cost
	tq.admitted++
	return &Reservation{e: e, tenant: tenant, cost: cost}, nil
}

// admissionErrorLocked builds the typed rejection, estimating RetryAfter
// as the time the worker pool needs to work off everything standing
// between the rejected request and admission: the capacity deficit (> 0)
// plus the cost already admitted but still queued ahead of the dispatcher
// (sched.queuedCost) — a freshly admitted burst holds capacity long before
// any of it solves. The per-check time is the engine's observed mean solve
// time.
func (e *Engine) admissionErrorLocked(tenant string, cost, limit int, reason string, deficit int) *ErrAdmission {
	avg := 50 * time.Millisecond
	if solved := e.checksSolved.Load(); solved > 0 {
		if observed := time.Duration(e.solveNanos.Load() / int64(solved)); observed > 0 {
			avg = observed
		}
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
		Permanent:  cost > limit, // waiting cannot cure it
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

// jobDone counts a finished job's completion and releases the grant Submit
// took for it, if it owns one.
func (e *Engine) jobDone(j *Job) {
	s := &e.sched
	s.mu.Lock()
	s.tenant(j.Tenant, e.opts.Admission).completed++
	if j.grant != nil {
		j.grant.releaseLocked()
	}
	s.mu.Unlock()
}
