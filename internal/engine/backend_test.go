package engine_test

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/solver"
)

// TestEngineBackendRoutingAndStats: jobs route to the engine-default backend
// unless a submission overrides it, and both job-level and engine-level
// per-backend accounting record the work.
func TestEngineBackendRoutingAndStats(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 4})
	defer eng.Close()
	n := netgen.Fig1(netgen.Fig1Options{})

	j1 := mustSubmit(t, eng, engine.Workload{Safety: netgen.StressProblem(n, 3)})
	if rep := j1.Wait(); !rep.OK() {
		t.Fatalf("native job failed:\n%s", rep.Summary())
	}
	st1 := j1.Stats()
	if st1.Backend != "native" || st1.Solved == 0 || st1.SolveNanos == 0 {
		t.Fatalf("native job stats: %+v", st1)
	}

	// A distinct problem (different pigeonhole size) so the override job is
	// not served from the cache.
	j2 := mustSubmit(t, eng, engine.Workload{Safety: netgen.StressProblem(n, 4),
		SubmitOptions: engine.SubmitOptions{Backend: solver.Portfolio(0)}})
	if rep := j2.Wait(); !rep.OK() {
		t.Fatalf("portfolio job failed:\n%s", rep.Summary())
	}
	st2 := j2.Stats()
	if st2.Backend != "portfolio" || st2.Solved == 0 || st2.Raced == 0 {
		t.Fatalf("portfolio job stats: %+v", st2)
	}

	es := eng.Stats()
	if es.Backends["native"].Solved == 0 || es.Backends["portfolio"].Solved == 0 {
		t.Fatalf("engine backend stats missing entries: %+v", es.Backends)
	}
	if es.Backends["portfolio"].Raced == 0 {
		t.Fatalf("portfolio racing not recorded: %+v", es.Backends["portfolio"])
	}
	if got := es.Backends["native"].Solved + es.Backends["portfolio"].Solved; got != es.ChecksSolved {
		t.Fatalf("backend totals %d != engine ChecksSolved %d", got, es.ChecksSolved)
	}
}

// TestUnknownResultsAreNotCached: a budget-exhausted (Unknown) check must be
// re-solved on resubmission — caching it would pin "insufficient budget" as
// the formula's verdict — while decided checks are still served from cache.
func TestUnknownResultsAreNotCached(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2, Backend: solver.Native(1)})
	defer eng.Close()
	p := netgen.StressProblem(netgen.Fig1(netgen.Fig1Options{}), 3)

	rep1 := mustSubmit(t, eng, engine.Workload{Safety: p}).Wait()
	unknown := len(rep1.Unknowns())
	if unknown == 0 {
		t.Fatal("stress problem decided under a 1-conflict budget; expected unknowns")
	}
	if rep1.OK() || len(rep1.HardFailures()) != 0 {
		t.Fatalf("unknowns must fail the report without hard failures: ok=%v fails=%d",
			rep1.OK(), len(rep1.HardFailures()))
	}
	s1 := eng.Stats()
	if s1.Backends["native"].Unknown == 0 {
		t.Fatalf("backend stats did not count unknowns: %+v", s1.Backends["native"])
	}

	j2 := mustSubmit(t, eng, engine.Workload{Safety: p})
	rep2 := j2.Wait()
	if got := len(rep2.Unknowns()); got != unknown {
		t.Fatalf("second run unknowns = %d, want %d", got, unknown)
	}
	st2 := j2.Stats()
	if st2.Unknown != unknown {
		t.Fatalf("job stats unknown = %d, want %d", st2.Unknown, unknown)
	}
	s2 := eng.Stats()
	if resolved := s2.ChecksSolved - s1.ChecksSolved; resolved < uint64(unknown) {
		t.Fatalf("unknown checks were served from cache: %d re-solved, want >= %d", resolved, unknown)
	}
	// The decided checks of the first run were cached and reused.
	if st2.CacheHits == 0 {
		t.Fatal("decided checks were not cached")
	}
}

// TestStatusPropagatesThroughCacheAndDedup: adapted (cached) results keep
// their Status and Backend label alongside the receiving check's identity.
func TestStatusPropagatesThroughCacheAndDedup(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 4})
	defer eng.Close()
	p := netgen.Fig1NoTransitProblem(netgen.Fig1(netgen.Fig1Options{}))
	mustSubmit(t, eng, engine.Workload{Safety: p}).Wait()
	rep := mustSubmit(t, eng, engine.Workload{Safety: p}).Wait() // all cache hits
	for _, r := range rep.Results {
		if r.Status != core.StatusOK || !r.OK {
			t.Fatalf("cached result lost status: %+v", r)
		}
	}
}

// blockingUnknown is a test backend: the hard pigeonhole check signals
// started, waits for release, then gives up (Unknown) — holding its
// in-flight dedup slot open deterministically — while every other check
// solves natively.
type blockingUnknown struct {
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func (b *blockingUnknown) Name() string { return "block-unknown" }
func (b *blockingUnknown) Solve(ctx context.Context, ob *core.Obligation, _ solver.Budget) solver.Outcome {
	if ob.Kind != core.ImplicationCheck { // only the pigeonhole implication blocks
		return solver.Outcome{CheckResult: ob.Solve(ctx, core.SolveConfig{Backend: b.Name()})}
	}
	b.once.Do(func() { close(b.started) })
	<-b.release
	r := ob.Solve(ctx, core.SolveConfig{ConflictBudget: 1, Backend: b.Name()})
	return solver.Outcome{CheckResult: r}
}

// TestUnknownNotSharedAcrossBackends: a waiter coalesced onto another job's
// in-flight solve must not inherit that job's Unknown when its own backend
// could decide the check — it re-solves under its own backend instead.
func TestUnknownNotSharedAcrossBackends(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	p := netgen.StressProblem(netgen.Fig1(netgen.Fig1Options{}), 4)

	weak := &blockingUnknown{started: make(chan struct{}), release: make(chan struct{})}
	jobA := mustSubmit(t, eng, engine.Workload{Safety: p, SubmitOptions: engine.SubmitOptions{Backend: weak}})
	<-weak.started // one worker now holds the pigeonhole check's in-flight slot

	// The identical problem under the default (unlimited native) backend:
	// its pigeonhole task must join that open flight as a waiter (the free
	// worker processes it while the flight blocks; its other checks are
	// cache hits from job A).
	jobB := mustSubmit(t, eng, engine.Workload{Safety: p})
	time.Sleep(100 * time.Millisecond)
	close(weak.release)

	repA, repB := jobA.Wait(), jobB.Wait()
	if len(repA.Unknowns()) == 0 {
		t.Fatalf("weak backend decided everything; test setup broken:\n%s", repA.Summary())
	}
	if !repB.OK() {
		t.Fatalf("unlimited-backend job inherited Unknown from a weaker job's flight:\n%s", repB.Summary())
	}
	if st := jobB.Stats(); st.Solved == 0 {
		t.Fatalf("job B solved nothing itself; the re-solve path did not run: %+v", st)
	}
}

// cancelAware blocks the hard pigeonhole check like blockingUnknown, but
// gives up (budget 1) only on its FIRST implication solve — the one the
// cancelled job runs — and solves later calls in full, so a re-solving
// waiter can decide the formula.
type cancelAware struct {
	started chan struct{}
	release chan struct{}
	calls   atomic.Int32
	once    sync.Once
}

func (b *cancelAware) Name() string { return "cancel-aware" }
func (b *cancelAware) Solve(ctx context.Context, ob *core.Obligation, _ solver.Budget) solver.Outcome {
	if ob.Kind != core.ImplicationCheck {
		return solver.Outcome{CheckResult: ob.Solve(ctx, core.SolveConfig{Backend: b.Name()})}
	}
	if b.calls.Add(1) == 1 {
		b.once.Do(func() { close(b.started) })
		<-b.release
		r := ob.Solve(ctx, core.SolveConfig{ConflictBudget: 1, Backend: b.Name()})
		return solver.Outcome{CheckResult: r}
	}
	return solver.Outcome{CheckResult: ob.Solve(ctx, core.SolveConfig{Backend: b.Name()})}
}

// TestCancelledUnknownNotSharedWithLiveWaiters: an Unknown produced under a
// cancelled submission context says nothing about the formula, so a waiter
// from a live job with the *same* backend configuration must re-solve
// instead of inheriting the give-up.
func TestCancelledUnknownNotSharedWithLiveWaiters(t *testing.T) {
	bk := &cancelAware{started: make(chan struct{}), release: make(chan struct{})}
	eng := engine.New(engine.Options{Workers: 2, Backend: bk})
	defer eng.Close()
	p := netgen.StressProblem(netgen.Fig1(netgen.Fig1Options{}), 4)

	ctxA, cancelA := context.WithCancel(context.Background())
	jobA, err := eng.Submit(ctxA, engine.Workload{Safety: p})
	if err != nil {
		t.Fatal(err)
	}
	<-bk.started // one worker holds the pigeonhole check's in-flight slot

	// The identical problem, same backend, same budget, live context: its
	// pigeonhole task joins the open flight as a waiter.
	jobB, err := eng.Submit(context.Background(), engine.Workload{Safety: p})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	cancelA() // A is cancelled while its solve is still running
	close(bk.release)

	repA, repB := jobA.Wait(), jobB.Wait()
	if len(repA.Unknowns()) == 0 {
		t.Fatalf("cancelled job decided everything; test setup broken:\n%s", repA.Summary())
	}
	if !repB.OK() {
		t.Fatalf("live job inherited a cancelled job's Unknown despite matching config:\n%s", repB.Summary())
	}
	if st := jobB.Stats(); st.Solved == 0 {
		t.Fatalf("job B solved nothing itself; the re-solve path did not run: %+v", st)
	}
}

// panicking is a test backend whose every solve panics.
type panicking struct{}

func (panicking) Name() string { return "panicking" }
func (panicking) Solve(context.Context, *core.Obligation, solver.Budget) solver.Outcome {
	panic("backend defect")
}

// TestBackendPanicBecomesUnknown: a backend that panics costs its checks a
// verdict, not the process. Every check of the job ends Unknown with the
// panic in its note, the stack is logged, nothing is cached, and a later job
// on the native backend solves every one of the same keys.
func TestBackendPanicBecomesUnknown(t *testing.T) {
	var logBuf bytes.Buffer
	eng := engine.New(engine.Options{Workers: 2, Logger: slog.New(slog.NewTextHandler(&logBuf, nil))})
	defer eng.Close()
	p := netgen.Fig1NoTransitProblem(netgen.Fig1(netgen.Fig1Options{}))
	checks := p.Checks(core.Options{})

	rep := mustSubmit(t, eng, engine.Workload{Safety: p,
		SubmitOptions: engine.SubmitOptions{Backend: panicking{}}}).Wait()
	if len(rep.Results) != len(checks) || len(rep.Unknowns()) != len(checks) {
		t.Fatalf("want all %d checks unknown, got %d results, %d unknown", len(checks), len(rep.Results), len(rep.Unknowns()))
	}
	for _, r := range rep.Results {
		if r.Counterexample == nil || !strings.Contains(r.Counterexample.Note, "backend defect") {
			t.Fatalf("unknown without the panic in its note: %+v", r)
		}
	}
	if n := eng.Stats().CacheLen; n != 0 {
		t.Fatalf("a panicked solve was cached: %d entries", n)
	}
	if log := logBuf.String(); !strings.Contains(log, "solve panicked") || !strings.Contains(log, "goroutine") {
		t.Fatalf("panic stack not logged:\n%s", log)
	}

	// The follow-up solves each distinct key once; the checks that share a
	// key with another are served by that solve, from the cache or in flight.
	keys := map[string]bool{}
	for _, c := range checks {
		keys[c.Key()] = true
	}
	before := eng.Stats().ChecksSolved
	j := mustSubmit(t, eng, engine.Workload{Safety: p})
	rep = j.Wait()
	if !rep.OK() || len(rep.Unknowns()) != 0 {
		t.Fatalf("native follow-up did not decide the checks:\n%s", rep.Summary())
	}
	st, solved := j.Stats(), eng.Stats().ChecksSolved-before
	if shared := st.CacheHits + st.DedupHits; solved != uint64(len(keys)) || shared != len(checks)-len(keys) {
		t.Fatalf("follow-up solved %d and shared %d, want %d (the distinct keys) and %d",
			solved, shared, len(keys), len(checks)-len(keys))
	}
	if n := eng.Stats().CacheLen; n == 0 {
		t.Fatal("decided checks were not cached")
	}
}
