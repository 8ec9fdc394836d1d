package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lightyear/internal/engine"
	"lightyear/internal/telemetry"
)

// TestEngineTelemetryMetrics runs real workloads through an instrumented
// engine and checks the Prometheus exposition carries the engine, solver,
// and cache series with sane values.
func TestEngineTelemetryMetrics(t *testing.T) {
	rec := telemetry.New(0)
	eng := engine.New(engine.Options{Workers: 2, Telemetry: rec})
	defer eng.Close()

	p := tinyProblem(1)
	j1, err := eng.Submit(context.Background(), engine.Workload{Safety: p})
	if err != nil {
		t.Fatal(err)
	}
	j1.Wait()
	// Same problem again: identical keys, so this round is cache hits.
	j2, err := eng.Submit(context.Background(), engine.Workload{Safety: tinyProblem(1)})
	if err != nil {
		t.Fatal(err)
	}
	j2.Wait()

	var b strings.Builder
	if err := rec.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"lightyear_jobs_submitted_total 2",
		"lightyear_jobs_completed_total 2",
		`lightyear_checks_solved_total{backend="native",status="ok"}`,
		`lightyear_solve_seconds_bucket{backend="native",le="+Inf"}`,
		"lightyear_queue_wait_seconds_bucket",
		`lightyear_cache_hits_total{kind="cache"}`,
		"lightyear_inflight_cost 0",
		"lightyear_queued_workloads 0",
		"lightyear_cache_entries",
		"lightyear_cache_hit_ratio",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if eng.Telemetry() != rec {
		t.Error("Telemetry() accessor does not return the recorder")
	}
}

// TestEngineOwnedTrace: a bare Submit (no caller span) gets an engine-owned
// trace whose span tree lands in the ring under the job's TraceID.
func TestEngineOwnedTrace(t *testing.T) {
	rec := telemetry.New(0)
	eng := engine.New(engine.Options{Workers: 1, Telemetry: rec})
	defer eng.Close()

	j, err := eng.Submit(context.Background(), engine.Workload{Safety: tinyProblem(7)})
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	id := j.TraceID()
	if id == "" {
		t.Fatal("engine-owned trace has no ID")
	}
	snap, ok := rec.Trace(id)
	if !ok {
		t.Fatal("completed job's trace not in ring")
	}
	names := make(map[string]bool)
	for _, s := range snap.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"queue", "dispatch", "solve:native"} {
		if !names[want] {
			t.Errorf("trace missing %q span; have %+v", want, snap.Spans)
		}
	}
}

// TestCallerSpanSuppressesEngineTrace: a workload submitted under a parent
// span nests its pipeline spans there and opens no trace of its own.
func TestCallerSpanSuppressesEngineTrace(t *testing.T) {
	rec := telemetry.New(0)
	eng := engine.New(engine.Options{Workers: 1, Telemetry: rec})
	defer eng.Close()

	tr := rec.StartTrace("host", "t1")
	parent := tr.StartSpan("problem")
	j, err := eng.Submit(context.Background(), engine.Workload{Safety: tinyProblem(8), TraceSpan: parent})
	if err != nil {
		t.Fatal(err)
	}
	j.Wait()
	if j.TraceID() != "" {
		t.Errorf("job under a caller span opened its own trace %q", j.TraceID())
	}
	parent.End()
	tr.Finish()
	snap, ok := rec.Trace(tr.ID())
	if !ok {
		t.Fatal("host trace not in ring")
	}
	if len(snap.Spans) != 1 {
		t.Fatalf("host trace roots = %d, want 1", len(snap.Spans))
	}
	var solve bool
	for _, c := range snap.Spans[0].Children {
		if strings.HasPrefix(c.Name, "solve:") {
			solve = true
		}
	}
	if !solve {
		t.Errorf("engine spans not nested under caller span: %+v", snap.Spans[0].Children)
	}
}

// TestAdmissionRejectionMetric: shed workloads show up per tenant/reason.
func TestAdmissionRejectionMetric(t *testing.T) {
	rec := telemetry.New(0)
	g := newGate()
	eng := engine.New(engine.Options{
		Workers: 1, Backend: g, CacheSize: -1,
		Telemetry: rec,
		Admission: engine.Admission{PerTenantQuota: 1},
	})
	defer eng.Close()
	defer g.Open() // before Close: Close drains, and drained solves must not stay gated

	prop, checks := manyChecks(100, 1)
	if _, err := eng.Submit(context.Background(), engine.Workload{
		Kind: engine.KindChecks, Property: prop, Checks: checks[:1], Tenant: "t1",
	}); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Submit(context.Background(), engine.Workload{
		Kind: engine.KindChecks, Property: prop, Checks: checks[:1], Tenant: "t1",
	})
	var ea *engine.ErrAdmission
	if !errors.As(err, &ea) {
		t.Fatalf("second submit: %v", err)
	}
	var b strings.Builder
	if err := rec.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `lightyear_admission_rejections_total{tenant="t1",reason="tenant quota"} 1`) {
		t.Errorf("rejection series missing:\n%s", b.String())
	}
}

// TestRetryAfterQueuedAhead is the regression test for the RetryAfter
// estimate: a rejection issued while a large admitted burst is still queued
// must tell the client to wait for that backlog, not just for the marginal
// capacity deficit. Before the fix both rejections below produced the same
// clamped-minimum hint.
func TestRetryAfterQueuedAhead(t *testing.T) {
	g := newGate()
	prop, checks := manyChecks(200, 120)
	eng := engine.New(engine.Options{
		Workers: 1, Backend: g, CacheSize: -1,
		Admission: engine.Admission{MaxInFlightChecks: len(checks)},
	})
	defer eng.Close()
	defer g.Open() // before Close: Close drains, and drained solves must not stay gated

	// Rejection on an idle engine: nothing queued ahead, so the hint is the
	// clamped minimum (mean solve time defaults to 50ms with nothing solved,
	// and the deficit is 1 check).
	_, err := eng.Reserve("", len(checks)+1) // over budget by 1
	var idle *engine.ErrAdmission
	if !errors.As(err, &idle) {
		t.Fatalf("idle-engine overcommit: %v", err)
	}

	// Fill the engine: one big gated workload. Its checks are admitted at
	// once but dispatched one at a time into a small channel, so nearly all
	// of its cost is queued ahead of the next request.
	big, err := eng.Submit(context.Background(), engine.Workload{
		Kind: engine.KindChecks, Property: prop, Checks: checks,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Submit(context.Background(), engine.Workload{
		Kind: engine.KindChecks, Property: prop, Checks: checks[:1],
	})
	var loaded *engine.ErrAdmission
	if !errors.As(err, &loaded) {
		t.Fatalf("loaded-engine submit: %v", err)
	}

	// ≥ 100 checks queued behind a 1-worker pool at ≥ 50ms/check ≫ 1s; the
	// idle rejection is the 100ms clamp floor.
	if loaded.RetryAfter <= idle.RetryAfter {
		t.Errorf("RetryAfter ignores queued-ahead cost: loaded %v <= idle %v",
			loaded.RetryAfter, idle.RetryAfter)
	}
	if loaded.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s for ~%d queued checks on 1 worker",
			loaded.RetryAfter, len(checks))
	}

	g.Open()
	big.Wait()
}
