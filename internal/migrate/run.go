package migrate

import (
	"context"
	"errors"
	"fmt"
	"time"

	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/telemetry"
	"lightyear/internal/topology"
)

// Event types emitted through RunConfig.Sink, in stream order. Events with
// no step context (baseline, order_*, done) carry Step = PlanStep = -1.
const (
	EvBaseline        = "baseline"         // the starting state was verified (or reused from the session)
	EvStepStarted     = "step_started"     // an intermediate state is about to be verified
	EvProblem         = "problem"          // per-problem outcome of the step's delta run
	EvCheck           = "check"            // a failing or undecided check, with witness
	EvStepOK          = "step_ok"          // the intermediate state holds every property
	EvStepViolated    = "step_violated"    // first violating step (ordered) or a blocked branch (search)
	EvOrderFound      = "order_found"      // search: a safe ordering exists
	EvOrderInfeasible = "order_infeasible" // search: no safe ordering (or budget exhausted)
	EvDone            = "done"             // terminal event, carries the full Result
	// EvError is not emitted by Run itself: hosts streaming events to a
	// client (lyserve) synthesize it as the terminal event when Run returns
	// an infrastructure error instead of a Result-carrying done.
	EvError = "error"
)

// Event is one entry of the step-indexed progress stream (the NDJSON wire
// format of POST /v2/sessions/{id}/migrate).
type Event struct {
	Type string `json:"type"`
	// Step is the execution index: position in the walked order (search
	// events: the depth at which the state was tried). -1 when unscoped.
	Step int `json:"step"`
	// PlanStep is the index into the submitted step list. Equal to Step for
	// ordered plans; they diverge under search.
	PlanStep int    `json:"plan_step"`
	Label    string `json:"label,omitempty"`
	// Search marks events emitted while exploring candidate orderings: a
	// step_violated with search=true is a pruned branch, not a verdict on
	// the plan.
	Search    bool   `json:"search,omitempty"`
	Unchanged bool   `json:"unchanged,omitempty"`
	Problem   string `json:"problem,omitempty"`
	Check     string `json:"check,omitempty"`
	Status    string `json:"status,omitempty"`
	OK        bool   `json:"ok,omitempty"`
	Witness   string `json:"witness,omitempty"`
	Reason    string `json:"reason,omitempty"`
	Checks    int    `json:"checks,omitempty"`
	Dirty     int    `json:"dirty,omitempty"`
	Reused    int    `json:"reused,omitempty"`
	Solved    int    `json:"solved,omitempty"`
	// Order/Labels/States accompany order_found and order_infeasible.
	Order  []int    `json:"order,omitempty"`
	Labels []string `json:"labels,omitempty"`
	States int      `json:"states,omitempty"`
	Result *Result  `json:"result,omitempty"` // done only
}

// RunConfig carries the host integration seams of one Run.
type RunConfig struct {
	// Verifier, when set, is the host's long-lived delta session (an lyserve
	// session): the plan walks from its pinned state, and on success the
	// final migrated state stays pinned — it IS the new baseline. On
	// violation, infeasibility, or error the original pinned state is
	// restored, so a failed migration never moves the session. When nil,
	// Run builds a private verifier and baselines the compiled network.
	Verifier *delta.Verifier
	// Reservation, when set, is a pre-admitted whole-plan reservation the
	// run executes under; Run releases it. When nil, Run reserves the
	// plan's full cost itself.
	Reservation *engine.Reservation
	// Sink receives progress events synchronously and in order. Optional.
	Sink func(Event)
	// Recorder, when set, receives lightyear_migrate_steps / _reorders.
	Recorder *telemetry.Recorder
	// Trace, when set, gets a "migrate" span with one "step:<label>" child
	// per verified intermediate state.
	Trace *telemetry.Trace
}

// FailedCheck is one failing or undecided check of a violating state.
type FailedCheck struct {
	Problem string `json:"problem"`
	Desc    string `json:"desc,omitempty"`
	Status  string `json:"status"`
	Witness string `json:"witness,omitempty"`
}

// StepResult summarizes one verified intermediate state. Dirty vs Reused is
// the delta-reuse evidence: a step re-solves the checks its own change
// dirtied, not the network.
type StepResult struct {
	Step         int    `json:"step"`
	PlanStep     int    `json:"plan_step"`
	Label        string `json:"label"`
	OK           bool   `json:"ok"`
	Unchanged    bool   `json:"unchanged,omitempty"`
	Checks       int    `json:"checks"`
	Dirty        int    `json:"dirty"`
	Reused       int    `json:"reused"`
	Solved       int    `json:"solved"`
	ElapsedNanos int64  `json:"elapsed_ns"`
}

// BlockedStep explains why one continuation of the longest safe prefix
// could not extend it.
type BlockedStep struct {
	PlanStep      int           `json:"plan_step"`
	Label         string        `json:"label"`
	Reason        string        `json:"reason"`
	FailingChecks []FailedCheck `json:"failing_checks,omitempty"`
}

// Infeasibility is the minimal explanation of a failed safe-order search:
// the longest safe prefix reached and what blocked every continuation from
// it. Steps whose continuation commutes with the prefix's last step are not
// listed — their interleavings verify identically to an explored canonical
// order.
type Infeasibility struct {
	BudgetExhausted bool          `json:"budget_exhausted,omitempty"`
	SafePrefix      []int         `json:"safe_prefix"`
	PrefixLabels    []string      `json:"prefix_labels,omitempty"`
	Blocked         []BlockedStep `json:"blocked,omitempty"`
}

// Result is the outcome of one migration plan run.
type Result struct {
	Label   string `json:"label"`
	Ordered bool   `json:"ordered"` // false = this was a safe-order search
	// OK: every intermediate state of the walked (or found) order holds
	// every property.
	OK         bool          `json:"ok"`
	BaselineOK bool          `json:"baseline_ok"`
	Baseline   *delta.Result `json:"baseline,omitempty"` // nil when run on a session's existing baseline

	// Steps are the verified states in execution order: the walked prefix
	// for ordered plans (up to and including the violating step), the
	// winning order for successful searches.
	Steps []StepResult `json:"steps"`

	// ViolatedStep/-PlanStep locate the first violating step (-1 = none):
	// execution index and submitted index respectively.
	ViolatedStep     int    `json:"violated_step"`
	ViolatedPlanStep int    `json:"violated_plan_step"`
	ViolatedLabel    string `json:"violated_label,omitempty"`
	// Undecided: the run stopped on a step whose checks were undecided
	// (solver budget), not provably violated.
	Undecided     bool          `json:"undecided,omitempty"`
	Reason        string        `json:"reason,omitempty"`
	FailingChecks []FailedCheck `json:"failing_checks,omitempty"`

	// Order/OrderLabels report the safe order a search found (plan-step
	// indices in execution order).
	Order       []int    `json:"order,omitempty"`
	OrderLabels []string `json:"order_labels,omitempty"`
	// Infeasible: the search proved no safe order exists (or exhausted its
	// budget — see Explanation.BudgetExhausted).
	Infeasible   bool           `json:"infeasible,omitempty"`
	Explanation  *Infeasibility `json:"explanation,omitempty"`
	SearchStates int            `json:"search_states,omitempty"` // intermediate states verified
	MemoHits     int            `json:"memo_hits,omitempty"`     // states shared between orderings
	PrunedOrders int            `json:"pruned,omitempty"`        // branches cut by commutativity

	ElapsedNanos int64 `json:"elapsed_ns"`
}

// Run executes a compiled migration plan on the shared engine. The returned
// error covers infrastructure failures — admission (engine.ErrAdmission),
// engine submission, context cancellation; plan verdicts (violating step,
// no safe order) are reported in the Result with a nil error.
func Run(ctx context.Context, eng *engine.Engine, c *Compiled, cfg RunConfig) (*Result, error) {
	start := time.Now()
	r := &runner{
		eng:      eng,
		c:        c,
		cfg:      cfg,
		stepsCtr: cfg.Recorder.Counter("lightyear_migrate_steps", "Migration plan steps verified, by outcome.", "outcome"),
		reorders: cfg.Recorder.Counter("lightyear_migrate_reorders", "Safe orderings found by migration-order search."),
	}
	res, err := r.run(ctx)
	if res != nil {
		res.ElapsedNanos = time.Since(start).Nanoseconds()
		if err == nil {
			r.emit(Event{Type: EvDone, Step: -1, PlanStep: -1, OK: res.OK, Result: res})
		}
	}
	return res, err
}

type runner struct {
	eng *engine.Engine
	c   *Compiled
	cfg RunConfig

	v       *delta.Verifier
	res     *Result
	span    *telemetry.Span
	origNet *topology.Network // session state to restore on failure

	stepsCtr *telemetry.CounterVec
	reorders *telemetry.CounterVec

	foundOrder []int // set by the search at its success leaf
}

func (r *runner) emit(ev Event) {
	if r.cfg.Sink != nil {
		r.cfg.Sink(ev)
	}
}

func (r *runner) countStep(outcome string) {
	r.stepsCtr.With(outcome).Inc()
}

func (r *runner) run(ctx context.Context) (*Result, error) {
	c := r.c
	r.res = &Result{
		Label:            c.Inner.Label(),
		Ordered:          !c.Plan.Unordered,
		ViolatedStep:     -1,
		ViolatedPlanStep: -1,
	}

	v := r.cfg.Verifier
	if v == nil {
		v = delta.NewVerifierFor(r.eng, c.Inner)
		v.SetWorkload(c.Inner.Workload())
	}
	r.v = v

	// Whole-plan admission: the steps run sequentially, so the plan never
	// holds more than one state's checks in flight — one reservation of the
	// full per-state cost covers every step and the baseline.
	resv := r.cfg.Reservation
	if resv == nil {
		var err error
		resv, err = r.eng.Reserve(c.Inner.Tenant(), c.Inner.Cost())
		if err != nil {
			return nil, err
		}
	}
	defer resv.Release()
	v.SetReservation(resv)
	defer v.SetReservation(nil)

	r.span = r.cfg.Trace.StartSpan("migrate")
	defer r.span.End()
	r.span.SetAttrInt("plan_steps", int64(len(c.steps)))

	r.origNet = v.PinnedNetwork()
	if r.origNet == nil {
		bres, err := verified(v.Baseline(c.Inner.Network))
		if err != nil {
			return nil, err
		}
		r.res.Baseline = bres
		r.res.BaselineOK = bres.OK && bres.Unknown == 0
		r.emit(Event{Type: EvBaseline, Step: -1, PlanStep: -1, OK: r.res.BaselineOK,
			Checks: bres.TotalChecks, Solved: bres.Solved})
		if !r.res.BaselineOK {
			r.res.Undecided = bres.Failures == 0
			r.res.Reason = "the baseline violates the plan's properties before any step"
			if r.res.Undecided {
				r.res.Reason = "the baseline is undecided before any step"
			}
			r.res.FailingChecks = failedChecks(bres)
			return r.res, nil
		}
	} else {
		// Session path: the pinned state was verified when it was pinned;
		// migrating from it re-walks forward, it does not re-audit it.
		r.res.BaselineOK = true
		r.emit(Event{Type: EvBaseline, Step: -1, PlanStep: -1, OK: true, Reused: v.ResultCount()})
	}

	var err error
	if c.Plan.Unordered {
		err = r.search(ctx)
	} else {
		err = r.ordered(ctx)
	}

	// A failed migration must not move a session: restore the original
	// pinned state so follow-up updates delta against what the session
	// actually has deployed.
	if r.cfg.Verifier != nil && r.origNet != nil && (err != nil || !r.res.OK) {
		if rbErr := r.rollback(); rbErr != nil && err == nil {
			err = fmt.Errorf("migrate: restoring the session baseline: %w", rbErr)
		}
	}
	if err != nil {
		return r.res, err
	}
	return r.res, nil
}

// verified passes a delta run through, unless the engine closed under it:
// a problem refused for that reason was never verified, so the migration
// fails with engine.ErrClosed instead of reading the state as violating.
func verified(dres *delta.Result, err error) (*delta.Result, error) {
	if err != nil {
		return dres, err
	}
	for _, p := range dres.Problems {
		if errors.Is(p.Err, engine.ErrClosed) {
			return dres, p.Err
		}
	}
	return dres, nil
}

func (r *runner) rollback() error {
	if r.v.Fingerprint() == r.origNet.Fingerprint() {
		return nil
	}
	_, err := verified(r.v.Update(r.origNet))
	return err
}

// ordered walks the plan's given order, stopping at the first violating,
// undecided, or inapplicable step.
func (r *runner) ordered(ctx context.Context) error {
	cur := r.v.PinnedNetwork()
	for k := range r.c.steps {
		st := &r.c.steps[k]
		if err := ctx.Err(); err != nil {
			return err
		}
		next := st.network
		if next == nil {
			n2, err := netgen.ApplyMutation(cur, *st.mutation)
			if err != nil {
				r.emit(Event{Type: EvStepStarted, Step: k, PlanStep: k, Label: st.label})
				sp := r.span.StartSpan("step:" + st.label)
				sp.SetAttr("outcome", "inapplicable")
				sp.End()
				r.res.ViolatedStep, r.res.ViolatedPlanStep, r.res.ViolatedLabel = k, k, st.label
				r.res.Reason = fmt.Sprintf("step %d (%s) cannot be applied: %v", k, st.label, err)
				r.res.Steps = append(r.res.Steps, StepResult{Step: k, PlanStep: k, Label: st.label})
				r.emit(Event{Type: EvStepViolated, Step: k, PlanStep: k, Label: st.label, Reason: r.res.Reason})
				r.countStep("violated")
				return nil
			}
			next = n2
		}

		vd, err := r.verifyStep(next, k, k, st.label, false)
		if err != nil {
			return err
		}
		r.res.Steps = append(r.res.Steps, vd.sr)
		if !vd.ok {
			r.res.ViolatedStep, r.res.ViolatedPlanStep, r.res.ViolatedLabel = k, k, st.label
			r.res.Undecided, r.res.Reason, r.res.FailingChecks = vd.undecided, vd.reason, vd.fails
			return nil
		}
		cur = next
	}
	r.res.OK = true
	return nil
}

// verifyStep verifies one intermediate state, next, on the run's verifier:
// it emits step_started, runs the update under a "step:<label>" span, emits
// the per-problem events and a check event per failing or undecided check
// (with witness), records checks, dirty, solved and the outcome (ok,
// unchanged, or violated) on the span, emits step_ok or step_violated, and
// counts the step by that outcome. Only an ordered walk's step_violated
// carries the reason: a search's is a pruned branch.
func (r *runner) verifyStep(next *topology.Network, step, planStep int, label string, search bool) (*verdict, error) {
	r.emit(Event{Type: EvStepStarted, Step: step, PlanStep: planStep, Label: label, Search: search})
	sp := r.span.StartSpan("step:" + label)
	defer sp.End()
	dres, err := verified(r.v.Update(next))
	if err != nil {
		return nil, err
	}
	sr := StepResult{
		Step: step, PlanStep: planStep, Label: label,
		OK:        dres.OK && dres.Unknown == 0,
		Unchanged: dres.Unchanged,
		Checks:    dres.TotalChecks, Dirty: dres.DirtyChecks,
		Reused: dres.ReusedResults, Solved: dres.Solved,
		ElapsedNanos: dres.ElapsedNanos,
	}
	for _, p := range dres.Problems {
		r.emit(Event{Type: EvProblem, Step: step, PlanStep: planStep, Label: label, Search: search,
			Problem: p.Name, OK: p.OK, Checks: p.Checks, Dirty: p.Dirty, Reused: p.Reused})
	}
	vd := &verdict{ok: sr.OK, undecided: !sr.OK && dres.Failures == 0, sr: sr, fails: failedChecks(dres), net: next}
	for _, f := range vd.fails {
		r.emit(Event{Type: EvCheck, Step: step, PlanStep: planStep, Label: label, Search: search,
			Problem: f.Problem, Check: f.Desc, Status: f.Status, Witness: f.Witness})
	}
	sp.SetAttrInt("checks", int64(sr.Checks))
	sp.SetAttrInt("dirty", int64(sr.Dirty))
	sp.SetAttrInt("solved", int64(sr.Solved))
	outcome := "violated"
	switch {
	case vd.ok:
		outcome = "ok"
		if dres.Unchanged {
			outcome = "unchanged"
		}
		r.emit(Event{Type: EvStepOK, Step: step, PlanStep: planStep, Label: label, Search: search, OK: true,
			Unchanged: dres.Unchanged, Checks: sr.Checks, Dirty: sr.Dirty, Reused: sr.Reused, Solved: sr.Solved})
	case vd.undecided:
		vd.reason = fmt.Sprintf("step %d (%s) is undecided: %d checks without a verdict", step, label, dres.Unknown)
	default:
		vd.reason = fmt.Sprintf("step %d (%s) violates: %d failing checks", step, label, dres.Failures)
	}
	if !vd.ok {
		ev := Event{Type: EvStepViolated, Step: step, PlanStep: planStep, Label: label, Search: search, Checks: len(vd.fails)}
		if !search {
			ev.Reason = vd.reason
		}
		r.emit(ev)
	}
	r.countStep(outcome)
	sp.SetAttr("outcome", outcome)
	return vd, nil
}

// failedChecks flattens a delta run's failing and undecided checks.
func failedChecks(dres *delta.Result) []FailedCheck {
	var out []FailedCheck
	for _, p := range dres.Problems {
		if p.Report == nil {
			if p.Failed {
				out = append(out, FailedCheck{Problem: p.Name, Desc: p.SkipReason, Status: "error"})
			}
			continue
		}
		for _, cr := range p.Report.HardFailures() {
			fc := FailedCheck{Problem: p.Name, Desc: cr.Desc.String(), Status: cr.Status.String()}
			if cr.Counterexample != nil {
				fc.Witness = cr.Counterexample.String()
			}
			out = append(out, fc)
		}
		for _, cr := range p.Report.Unknowns() {
			out = append(out, FailedCheck{Problem: p.Name, Desc: cr.Desc.String(), Status: cr.Status.String()})
		}
	}
	return out
}
