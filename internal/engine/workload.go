package engine

import (
	"fmt"

	"lightyear/internal/core"
	"lightyear/internal/telemetry"
)

// WorkloadKind names the payload shape of a Workload. It is optional on
// submission — the engine infers it from whichever payload field is set —
// but when given it must agree with the payload, which catches callers that
// populate the wrong field.
type WorkloadKind string

const (
	// KindSafety verifies a core.SafetyProblem (checks generated by the
	// engine from the problem).
	KindSafety WorkloadKind = "safety"
	// KindLiveness verifies a core.LivenessProblem; an invalid path fails
	// fast at Submit.
	KindLiveness WorkloadKind = "liveness"
	// KindChecks schedules a raw, pre-generated check batch under an
	// explicit Property — the shape internal/delta and internal/plan submit
	// after computing their own check sets.
	KindChecks WorkloadKind = "checks"
)

// Workload is the engine's one typed submission descriptor: what to verify
// (exactly one of Safety, Liveness, or Checks), who is submitting (Tenant),
// how urgently (Priority, ordered within the tenant), the admission grant
// it runs under (Reservation), and per-job execution overrides
// (SubmitOptions). Every entry point — plan runs, delta sessions, lyserve,
// the CLIs — builds one of these and calls Engine.Submit.
type Workload struct {
	// Kind optionally names the payload shape; inferred when empty.
	Kind WorkloadKind

	// Safety is a safety problem; the engine generates its local checks.
	Safety *core.SafetyProblem
	// Liveness is a liveness problem; check generation validates the path.
	Liveness *core.LivenessProblem
	// Checks is a pre-generated raw check batch (KindChecks). A non-nil
	// empty slice (or Kind == KindChecks with no checks) is a valid empty job.
	Checks []core.Check
	// Property labels a KindChecks batch's report; ignored for problem
	// payloads, which carry their own.
	Property core.Property

	// Tenant is the principal the workload is accounted to; empty means
	// DefaultTenant. Admission quotas and the weighted-fair dispatcher key
	// on it.
	Tenant string
	// Priority orders workloads within one tenant's queue (higher first;
	// FIFO among equals). It does not let one tenant preempt another — the
	// cross-tenant order is the fair dispatcher's.
	Priority int
	// Reservation, when non-nil, marks the workload as part of a larger
	// unit (e.g. one compiled plan) already admitted via Engine.Reserve:
	// the reservation holds the unit's whole cost until its owner releases
	// it. When nil, Submit reserves the workload's check count itself.
	Reservation *Reservation

	// TraceSpan, when non-nil, is the parent span under which the engine
	// records this workload's pipeline spans (queue, dispatch,
	// solve:<backend>, cache) — the hook plan runs use to nest every
	// problem of one request under one trace. When nil and the engine has
	// a telemetry recorder, the engine opens a trace of its own and
	// finishes it when the job completes (Job.TraceID exposes its ID).
	TraceSpan *telemetry.Span

	// SubmitOptions carries per-job execution overrides (solver backend).
	SubmitOptions
}

// resolve validates the workload shape and materializes its checks.
func (w Workload) resolve() (core.Property, []core.Check, error) {
	kind := w.Kind
	set := 0
	if w.Safety != nil {
		set++
		kind = KindSafety
	}
	if w.Liveness != nil {
		set++
		kind = KindLiveness
	}
	if w.Checks != nil || (set == 0 && w.Kind == KindChecks) {
		set++
		kind = KindChecks
	}
	if set != 1 {
		return core.Property{}, nil, fmt.Errorf("engine: workload must set exactly one of Safety, Liveness, or Checks (got %d)", set)
	}
	if w.Kind != "" && w.Kind != kind {
		return core.Property{}, nil, fmt.Errorf("engine: workload kind %q does not match its %s payload", w.Kind, kind)
	}
	switch kind {
	case KindSafety:
		return w.Safety.Property, w.Safety.Checks(core.Options{}), nil
	case KindLiveness:
		checks, err := w.Liveness.Checks(core.Options{})
		if err != nil {
			return core.Property{}, nil, err
		}
		return w.Liveness.Property, checks, nil
	default:
		return w.Property, w.Checks, nil
	}
}
