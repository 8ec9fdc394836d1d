package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/policy"
	"lightyear/internal/solver"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// tinyProblem builds a minimal safety problem whose import policy embeds i,
// so every index yields a semantically distinct filter check (distinct cache
// key — no cross-workload cache or dedup sharing muddies scheduling tests).
// The trivial True⊆True implication check is shared across indices, so
// ordering assertions must anchor on the imp-<i> filter checks.
func tinyProblem(i int) *core.SafetyProblem {
	n := topology.New()
	n.AddRouter("A", 100)
	n.AddExternal("X", 200)
	n.AddEdge("X", "A")
	n.SetImport(topology.Edge{From: "X", To: "A"}, &policy.RouteMap{
		Name: fmt.Sprintf("imp-%d", i),
		Clauses: []policy.Clause{
			{Seq: 10, Actions: []policy.Action{policy.SetLocalPref{Value: uint32(i%1000 + 1)}}, Permit: true},
		},
	})
	return &core.SafetyProblem{
		Network:    n,
		Property:   core.Property{Loc: core.AtRouter("A"), Pred: spec.True()},
		Invariants: core.NewInvariants(spec.True()),
	}
}

// manyChecks concatenates distinct tiny problems' checks into one raw batch
// of at least want checks.
func manyChecks(base, want int) (core.Property, []core.Check) {
	var checks []core.Check
	var prop core.Property
	for i := base; len(checks) < want; i++ {
		p := tinyProblem(i)
		prop = p.Property
		checks = append(checks, p.Checks(core.Options{})...)
	}
	return prop, checks
}

// gate is a test backend that blocks every solve until Open, then solves
// natively — it holds admitted work in flight deterministically.
type gate struct {
	open chan struct{}
	once sync.Once
}

func newGate() *gate { return &gate{open: make(chan struct{})} }

func (g *gate) Open()        { g.once.Do(func() { close(g.open) }) }
func (g *gate) Name() string { return "gate" }
func (g *gate) Solve(ctx context.Context, ob *core.Obligation, _ solver.Budget) solver.Outcome {
	<-g.open
	return solver.Outcome{CheckResult: ob.Solve(ctx, core.SolveConfig{Backend: g.Name()})}
}

// TestWorkloadValidation: Submit rejects malformed descriptors with clear
// errors rather than scheduling garbage.
func TestWorkloadValidation(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()

	if _, err := eng.Submit(context.Background(), engine.Workload{}); err == nil {
		t.Error("empty workload accepted")
	}
	p := tinyProblem(1)
	if _, err := eng.Submit(context.Background(), engine.Workload{
		Safety: p, Checks: p.Checks(core.Options{}),
	}); err == nil {
		t.Error("workload with two payloads accepted")
	}
	if _, err := eng.Submit(context.Background(), engine.Workload{
		Kind: engine.KindLiveness, Safety: p,
	}); err == nil {
		t.Error("kind/payload mismatch accepted")
	}
	// An explicitly empty checks batch is a valid empty job.
	j, err := eng.Submit(context.Background(), engine.Workload{Kind: engine.KindChecks, Property: p.Property})
	if err != nil {
		t.Fatalf("empty checks workload rejected: %v", err)
	}
	if rep := j.Wait(); rep.NumChecks() != 0 {
		t.Errorf("empty job ran %d checks", rep.NumChecks())
	}
	// A cancelled context is refused up front.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Submit(ctx, engine.Workload{Safety: p}); err == nil {
		t.Error("cancelled context accepted")
	}
	// A negative cost would credit the quota accounting; refused.
	if _, err := eng.Reserve("t", -5); err == nil {
		t.Error("negative reservation cost accepted")
	}
}

// TestSubmitAfterClose: once the engine has closed, Submit and Reserve
// return ErrClosed, with or without a grant taken before Close.
func TestSubmitAfterClose(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	resv, err := eng.Reserve("t", 4)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	p := tinyProblem(1)
	for _, w := range []engine.Workload{{Safety: p}, {Safety: p, Tenant: "t", Reservation: resv}} {
		if _, err := eng.Submit(context.Background(), w); !errors.Is(err, engine.ErrClosed) {
			t.Errorf("Submit after Close (reservation %v): %v, want ErrClosed", w.Reservation != nil, err)
		}
	}
	if _, err := eng.Reserve("t", 1); !errors.Is(err, engine.ErrClosed) {
		t.Errorf("Reserve after Close: %v, want ErrClosed", err)
	}
	resv.Release()
}

// TestAdmissionTenantQuota: per-tenant token accounting admits up to the
// quota, rejects beyond it with the typed error, and releases tokens when
// jobs complete.
func TestAdmissionTenantQuota(t *testing.T) {
	g := &gate{open: make(chan struct{})}
	p1 := tinyProblem(1)
	cost := len(p1.Checks(core.Options{}))
	eng := engine.New(engine.Options{
		Workers:   1,
		Backend:   g,
		Admission: engine.Admission{PerTenantQuota: cost + 1}, // one workload fits, two do not
	})
	defer eng.Close()
	defer g.Open() // never leave the drain-on-Close gated

	j1, err := eng.Submit(context.Background(), engine.Workload{Safety: p1, Tenant: "acme"})
	if err != nil {
		t.Fatalf("first workload rejected: %v", err)
	}
	_, err = eng.Submit(context.Background(), engine.Workload{Safety: tinyProblem(2), Tenant: "acme"})
	var adm *engine.ErrAdmission
	if !errors.As(err, &adm) {
		t.Fatalf("over-quota workload: got %v, want ErrAdmission", err)
	}
	if adm.Tenant != "acme" || adm.Cost != cost || adm.Limit != cost+1 || adm.Reason != "tenant quota" {
		t.Fatalf("ErrAdmission fields: %+v", adm)
	}
	if adm.RetryAfter <= 0 {
		t.Fatalf("ErrAdmission without a RetryAfter hint: %+v", adm)
	}

	// A different tenant is not throttled by acme's quota.
	if _, err := eng.Submit(context.Background(), engine.Workload{Safety: tinyProblem(3), Tenant: "other"}); err != nil {
		t.Fatalf("independent tenant rejected: %v", err)
	}

	// Completion releases the tokens: the same submission is admitted.
	g.Open()
	j1.Wait()
	if _, err := eng.Submit(context.Background(), engine.Workload{Safety: tinyProblem(2), Tenant: "acme"}); err != nil {
		t.Fatalf("post-completion workload rejected: %v", err)
	}

	st := eng.Stats()
	ts := st.Tenants["acme"]
	if ts.Admitted != 2 || ts.Rejected != 1 {
		t.Fatalf("acme tenant stats: %+v", ts)
	}
	if st.Tenants["other"].Admitted != 1 {
		t.Fatalf("other tenant stats: %+v", st.Tenants["other"])
	}
}

// TestAdmissionMaxInFlight: the engine-wide budget rejects across tenants
// — transiently while another tenant's grant holds it, permanently when
// the cost exceeds the whole budget — and a released grant frees it.
func TestAdmissionMaxInFlight(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, Admission: engine.Admission{MaxInFlightChecks: 10}})
	defer eng.Close()

	a, err := eng.Reserve("a", 8)
	if err != nil {
		t.Fatalf("first reservation rejected: %v", err)
	}
	_, err = eng.Reserve("b", 8)
	var adm *engine.ErrAdmission
	if !errors.As(err, &adm) || adm.Reason != "engine in-flight" || adm.Limit != 10 || adm.Tenant != "b" || adm.Permanent {
		t.Fatalf("cross-tenant budget rejection: err=%v", err)
	}
	if _, err := eng.Reserve("b", 11); !errors.As(err, &adm) || !adm.Permanent {
		t.Fatalf("over-budget reservation not permanent: err=%v", err)
	}
	b, err := eng.Reserve("b", 2) // exactly the remainder
	if err != nil {
		t.Fatalf("exact-fit reservation rejected: %v", err)
	}
	a.Release()
	b.Release()
	if _, err := eng.Reserve("b", 10); err != nil {
		t.Fatalf("reservation after release rejected: %v", err)
	}
}

// TestUnreservedSubmitIsAReservation: a workload submitted without a
// Reservation is admitted, counted and released exactly like a Reserve of
// its check count under which the same workload runs.
func TestUnreservedSubmitIsAReservation(t *testing.T) {
	p := tinyProblem(1)
	cost := len(p.Checks(core.Options{}))
	type side struct {
		eng *engine.Engine
		g   *gate
		job *engine.Job
		own *engine.Reservation // the reserved side's grant
	}
	sides := [2]*side{}
	for i := range sides {
		g := newGate()
		eng := engine.New(engine.Options{Workers: 1, Backend: g,
			Admission: engine.Admission{MaxInFlightChecks: cost}})
		defer eng.Close()
		defer g.Open()
		sides[i] = &side{eng: eng, g: g}
	}
	unres, res := sides[0], sides[1]
	var err error
	if unres.job, err = unres.eng.Submit(context.Background(), engine.Workload{Safety: p, Tenant: "acme"}); err != nil {
		t.Fatalf("unreserved submit: %v", err)
	}
	if res.own, err = res.eng.Reserve("acme", cost); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if res.job, err = res.eng.Submit(context.Background(), engine.Workload{Safety: p, Tenant: "acme", Reservation: res.own}); err != nil {
		t.Fatalf("reserved submit: %v", err)
	}
	for _, sd := range sides {
		// While the job runs its grant holds the whole budget: one more
		// check from anyone is refused and counted.
		var adm *engine.ErrAdmission
		if _, err := sd.eng.Reserve("acme", 1); !errors.As(err, &adm) || adm.Reason != "engine in-flight" {
			t.Fatalf("reserve inside a held budget: %v", err)
		}
		if _, err := sd.eng.Submit(context.Background(), engine.Workload{Safety: tinyProblem(2), Tenant: "acme"}); !errors.As(err, &adm) {
			t.Fatalf("unreserved submit inside a held budget: %v", err)
		}
	}
	// Compare once each dispatcher has handed its job's checks to the
	// (gated) worker pool: before that a snapshot can catch one side's
	// workload still queued and the other's not.
	deadline := time.Now().Add(time.Minute)
	for _, sd := range sides {
		for sd.eng.Stats().QueuedWorkloads != 0 {
			if time.Now().After(deadline) {
				t.Fatal("a job's checks were never dispatched")
			}
			runtime.Gosched()
		}
	}
	held := [2]engine.Stats{unres.eng.Stats(), res.eng.Stats()}
	if held[0].InFlightCost != cost || held[0].InFlightCost != held[1].InFlightCost {
		t.Fatalf("in-flight cost while running: unreserved %d, reserved %d, want %d",
			held[0].InFlightCost, held[1].InFlightCost, cost)
	}
	if u, r := held[0].Tenants["acme"], held[1].Tenants["acme"]; u != r || u.Admitted != 1 || u.Rejected != 2 {
		t.Fatalf("tenant accounting while running: unreserved %+v, reserved %+v", u, r)
	}

	for _, sd := range sides {
		sd.g.Open()
		sd.job.Wait()
		if js := sd.job.Stats(); js.Cost != cost {
			t.Fatalf("job cost %d, want its check count %d", js.Cost, cost)
		}
	}
	res.own.Release() // the reserved side's owner releases; the job released the other
	done := [2]engine.Stats{unres.eng.Stats(), res.eng.Stats()}
	if done[0].InFlightCost != 0 || done[1].InFlightCost != 0 {
		t.Fatalf("in-flight cost after release: unreserved %d, reserved %d", done[0].InFlightCost, done[1].InFlightCost)
	}
	if u, r := done[0].Tenants["acme"], done[1].Tenants["acme"]; u != r || u.Completed != 1 || u.InFlightCost != 0 {
		t.Fatalf("tenant accounting after release: unreserved %+v, reserved %+v", u, r)
	}
	for _, sd := range sides {
		if _, err := sd.eng.Reserve("acme", cost); err != nil {
			t.Fatalf("budget not freed: %v", err)
		}
	}
}

// TestReservationAdmitsWholeUnit: Reserve admits a multi-workload unit up
// front; workloads under the reservation take no grant of their own, and
// Release returns the capacity.
func TestReservationAdmitsWholeUnit(t *testing.T) {
	eng := engine.New(engine.Options{
		Workers:   2,
		Admission: engine.Admission{MaxInFlightChecks: 10},
	})
	defer eng.Close()

	resv, err := eng.Reserve("acme", 10)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if _, err := eng.Reserve("acme", 1); err == nil {
		t.Fatal("second Reserve fit inside a full budget")
	}
	// Workloads under the reservation are admitted even though the budget
	// is fully held (their cost is the reservation's).
	j, err := eng.Submit(context.Background(), engine.Workload{Safety: tinyProblem(1), Tenant: "acme", Reservation: resv})
	if err != nil {
		t.Fatalf("reserved workload rejected: %v", err)
	}
	// The reservation's tenant is binding.
	if _, err := eng.Submit(context.Background(), engine.Workload{Safety: tinyProblem(2), Tenant: "other", Reservation: resv}); err == nil {
		t.Fatal("reservation accepted a foreign tenant's workload")
	}
	j.Wait()
	resv.Release()
	resv.Release() // idempotent
	if _, err := eng.Reserve("acme", 10); err != nil {
		t.Fatalf("Reserve after Release: %v", err)
	}
	if _, err := eng.Reserve("acme", 1); err == nil {
		t.Fatal("Reserve fit inside a full budget")
	}
}

// recordingGate additionally records the order in which filter checks reach
// the (single) worker — with one worker that is exactly the fair
// dispatcher's dequeue order. Checks are attributed to tenants via the
// route-map name tinyProblem embeds.
type recordingGate struct {
	gate
	mu    sync.Mutex
	order []string
}

func (g *recordingGate) Solve(ctx context.Context, ob *core.Obligation, b solver.Budget) solver.Outcome {
	if m := ob.RouteMap(); m != nil {
		g.mu.Lock()
		g.order = append(g.order, m.Name)
		g.mu.Unlock()
	}
	return g.gate.Solve(ctx, ob, b)
}

// TestWeightedFairDequeueAcrossTenants is the starvation invariant: tenant
// A floods the engine first, tenant B arrives second, and the deficit
// round-robin dispatcher must interleave their dequeues — B's checks are
// dispatched throughout the run instead of after all of A's (which is what
// the old global FIFO did).
func TestWeightedFairDequeueAcrossTenants(t *testing.T) {
	const perTenant = 24
	g := &recordingGate{gate: *newGate()}
	eng := engine.New(engine.Options{Workers: 1, Backend: g})
	defer eng.Close()
	defer g.Open()

	var jobs []*engine.Job
	submit := func(tenant string, base int) {
		for i := 0; i < perTenant; i++ {
			j, err := eng.Submit(context.Background(), engine.Workload{
				Safety: tinyProblem(base + i), // route maps imp-<base+i> tag the tenant
				Tenant: tenant,
			})
			if err != nil {
				t.Fatalf("submit %s/%d: %v", tenant, i, err)
			}
			jobs = append(jobs, j)
		}
	}
	submit("a", 0)   // the flood arrives first (base 0..23)…
	submit("b", 500) // …then the second tenant (base 500..523)
	g.Open()
	for _, j := range jobs {
		if rep := j.Wait(); !rep.OK() {
			t.Fatalf("job for tenant %s failed:\n%s", j.Tenant, rep.Summary())
		}
	}

	g.mu.Lock()
	order := append([]string(nil), g.order...)
	g.mu.Unlock()
	if len(order) != 2*perTenant {
		t.Fatalf("recorded %d filter-check dispatches, want %d", len(order), 2*perTenant)
	}
	rankSum := map[string]int{}
	count := map[string]int{}
	firstB := -1
	for i, name := range order {
		tenant := "a"
		var id int
		fmt.Sscanf(name, "imp-%d", &id)
		if id >= 500 {
			tenant = "b"
		}
		rankSum[tenant] += i
		count[tenant]++
		if tenant == "b" && firstB < 0 {
			firstB = i
		}
	}
	if count["a"] != perTenant || count["b"] != perTenant {
		t.Fatalf("per-tenant dispatch counts: %v", count)
	}
	meanB := float64(rankSum["b"]) / perTenant / float64(len(order))
	// Global FIFO would dispatch every B check after every A check: mean
	// rank near 0.75, first B dispatch at rank 24. Fair interleaving keeps
	// B's mean near 0.5 and its first dispatch early.
	if meanB > 0.65 {
		t.Errorf("tenant b starved: mean dispatch rank %.2f (FIFO = 0.75, fair = 0.5)\norder: %v", meanB, order)
	}
	if firstB > len(order)/2 {
		t.Errorf("tenant b's first dispatch at rank %d of %d; expected interleaving", firstB, len(order))
	}

	// Jobs carried their admission identity and the engine accounted both
	// tenants; at least the gated head-of-line jobs recorded queue waits.
	st := eng.Stats()
	if st.Tenants["a"].Admitted != perTenant || st.Tenants["b"].Admitted != perTenant {
		t.Fatalf("tenant stats: %+v", st.Tenants)
	}
	waited := 0
	for _, j := range jobs {
		js := j.Stats()
		if js.Tenant != j.Tenant || js.Cost == 0 {
			t.Fatalf("job stats missing admission identity: %+v", js)
		}
		if js.QueueWaitNanos > 0 {
			waited++
		}
	}
	if waited == 0 {
		t.Error("no job recorded a queue wait behind the gated worker")
	}
}

// TestPriorityOrdersWithinTenant: a high-priority workload submitted after
// a backlog of equal-tenant work overtakes it (priority is intra-tenant
// ordering, not cross-tenant preemption). The assertion is on solve order —
// with one worker that is exactly the dispatcher's dequeue order — not on
// job completion order: all three jobs finish within microseconds of each
// other once the gate opens, so the order in which their waiters observe
// completion is scheduler noise, but the order their unique filter checks
// reach the backend is the scheduling decision under test.
func TestPriorityOrdersWithinTenant(t *testing.T) {
	g := &recordingGate{gate: *newGate()}
	eng := engine.New(engine.Options{Workers: 1, Backend: g})
	defer eng.Close()
	defer g.Open()

	// Occupy the dispatcher's head-of-line slots with one big batch, then
	// queue normal and priority jobs behind it. Whether or not the
	// dispatcher has started on the batch when they arrive, the priority
	// insert must place urgent's checks ahead of normal's.
	prop, checks := manyChecks(100, 16)
	head, err := eng.Submit(context.Background(), engine.Workload{Kind: engine.KindChecks, Property: prop, Checks: checks})
	if err != nil {
		t.Fatal(err)
	}
	var normal, urgent *engine.Job
	if normal, err = eng.Submit(context.Background(), engine.Workload{Safety: tinyProblem(1)}); err != nil {
		t.Fatal(err)
	}
	if urgent, err = eng.Submit(context.Background(), engine.Workload{Safety: tinyProblem(2), Priority: 5}); err != nil {
		t.Fatal(err)
	}
	g.Open()
	for _, j := range []*engine.Job{head, normal, urgent} {
		if rep := j.Wait(); !rep.OK() {
			t.Fatalf("job failed:\n%s", rep.Summary())
		}
	}

	g.mu.Lock()
	order := append([]string(nil), g.order...)
	g.mu.Unlock()
	pos := func(name string) int {
		for i, n := range order {
			if n == name {
				return i
			}
		}
		return -1
	}
	urgentAt, normalAt := pos("imp-2"), pos("imp-1")
	if urgentAt < 0 || normalAt < 0 {
		t.Fatalf("filter checks not solved: order %v", order)
	}
	if urgentAt > normalAt {
		t.Fatalf("urgent's check solved after normal's: order %v", order)
	}
}

// TestTenantMapBounded: client-chosen tenant names cannot grow the
// per-tenant accounting map without bound — idle tenants are evicted when
// new registrations would exceed the cap, while tenants with live work
// survive.
func TestTenantMapBounded(t *testing.T) {
	g := newGate()
	eng := engine.New(engine.Options{Workers: 1, Backend: g})
	defer eng.Close()
	defer g.Open()

	// A tenant with in-flight work must survive any churn below.
	if _, err := eng.Submit(context.Background(), engine.Workload{Safety: tinyProblem(1), Tenant: "pinned"}); err != nil {
		t.Fatal(err)
	}
	// Churn far past the bound with reserve-and-release traffic (the cheap
	// spam an unauthenticated X-Tenant header allows).
	for i := 0; i < 3000; i++ {
		resv, err := eng.Reserve(fmt.Sprintf("spam-%d", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		resv.Release()
	}
	st := eng.Stats()
	if len(st.Tenants) > 1100 {
		t.Fatalf("tenant map unbounded: %d entries", len(st.Tenants))
	}
	if _, ok := st.Tenants["pinned"]; !ok {
		t.Fatal("tenant with in-flight work was evicted")
	}
	g.Open()
}
