package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"lightyear/internal/policy"
	"lightyear/internal/routemodel"
	"lightyear/internal/smt"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// Status is the explicit verdict of one local check: the check passed, a
// concrete violation exists, or the solver gave up before deciding (budget
// exhausted or cancelled). Unknown is deliberately distinct from Fail — an
// undecided check does not witness a bug, it witnesses insufficient solver
// effort, and callers escalate or report the two differently.
type Status int

const (
	// StatusOK means the check's violation formula is unsatisfiable: the
	// local invariant holds.
	StatusOK Status = iota
	// StatusFail means a concrete counterexample was found.
	StatusFail
	// StatusUnknown means the solver stopped before a verdict (conflict
	// budget exhausted or cooperative cancellation).
	StatusUnknown
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusFail:
		return "fail"
	case StatusUnknown:
		return "unknown"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Obligation is the declarative description of one local check: what must be
// proven (kind, location, predicates, route-map and ghost references,
// polarity), divorced from how it is decided. Obligations are built by
// SafetyProblem.Checks / LivenessProblem.Checks, inspected or encoded by
// solver backends (internal/solver), and are immutable once built — the same
// obligation may be encoded and solved concurrently by racing backends, each
// in its own smt.Context.
//
// Exactly one content family is populated: a filter obligation (import,
// export, propagation — the §4.2/§5.2 pattern over one route map), an
// implication obligation (I_ℓ ⊆ P and C_n ⊆ P), or an originate obligation
// (concrete originated routes checked against an edge invariant, no solver
// involved).
type Obligation struct {
	Kind CheckKind
	Loc  Location
	Desc Desc
	key  string

	// relabeledFor is the liveness path location a no-interference sub-check
	// was re-identified for (nil otherwise); it prefixes the description.
	relabeledFor *Location

	filter      *filterObligation
	implication *implicationObligation
	originate   *originateObligation
}

// filterObligation is the §4.2/§5.2 filter check content: for filter m on
// the obligation's edge with ghost actions gs,
//
//	∀r: pre(r) ∧ r' = m(r) ⇒ (r' = Reject ∨ post(r'))    (mustAccept=false)
//	∀r: pre(r) ∧ r' = m(r) ⇒ (r' ≠ Reject ∧ post(r'))    (mustAccept=true)
type filterObligation struct {
	u          *spec.Universe
	m          *policy.RouteMap
	ghostActs  []policy.Action
	pre, post  *predicate
	mustAccept bool
	importSide bool // m is the import filter at the edge's To (else the export at From)
}

// implicationObligation is the standalone pre ⊆ post check content.
type implicationObligation struct {
	u         *spec.Universe
	pre, post *predicate
	final     bool // the liveness proof's C_n ⊆ P (else a safety I_ℓ ⊆ P)
}

// originateObligation validates concrete originated routes against an edge
// invariant; it is evaluated directly, never encoded.
type originateObligation struct {
	e      topology.Edge
	routes []*routemodel.Route
	ghosts []GhostDef
	inv    *predicate
}

// describe renders the description of a generated obligation from its
// content (Desc.String calls it; wire-decoded obligations carry text).
func (ob *Obligation) describe() string {
	var s string
	switch {
	case ob.filter != nil:
		f, e := ob.filter, ob.Loc.Edge()
		from, to, pre, post := string(e.From), string(e.To), f.pre.memo().quoted, f.post.memo().quoted
		switch {
		case f.mustAccept && f.importSide:
			s = "propagation: import at " + to + " accepts " + pre + " and yields " + post
		case f.mustAccept:
			s = "propagation: export at " + from + " to " + to + " accepts " + pre + " and yields " + post
		case f.importSide:
			s = "import at " + to + " from " + from + ": " + pre + " ⇒ " + post
		default:
			s = "export at " + from + " to " + to + ": " + pre + " ⇒ " + post
		}
	case ob.implication != nil && ob.implication.final:
		s = "final path constraint implies liveness property"
	case ob.implication != nil:
		s = "invariant at " + ob.Loc.String() + " implies property"
	case ob.originate != nil:
		s = "originated routes on " + ob.originate.e.String() + " satisfy " + ob.originate.inv.memo().quoted
	}
	if ob.relabeledFor != nil {
		s = "[for " + ob.relabeledFor.String() + "] " + s
	}
	return s
}

// Key returns the obligation's semantic cache key (see Check.Key).
func (ob *Obligation) Key() string { return ob.key }

// Concrete reports whether the obligation is decided by direct evaluation of
// concrete routes (originate checks) rather than a solver query. Backends
// short-circuit concrete obligations: racing or budget-tiering them is
// pointless.
func (ob *Obligation) Concrete() bool { return ob.originate != nil }

// RouteMap returns the route map a filter obligation constrains, nil for
// implication and originate obligations.
func (ob *Obligation) RouteMap() *policy.RouteMap {
	if ob.filter == nil {
		return nil
	}
	return ob.filter.m
}

// Predicates returns the obligation's (pre, post) predicate pair: the edge or
// router invariants of a filter obligation, or the implication's two sides.
// Originate obligations return (nil, inv).
func (ob *Obligation) Predicates() (pre, post spec.Pred) {
	switch {
	case ob.filter != nil:
		return ob.filter.pre.pred, ob.filter.post.pred
	case ob.implication != nil:
		return ob.implication.pre.pred, ob.implication.post.pred
	case ob.originate != nil:
		return nil, ob.originate.inv.pred
	}
	return nil, nil
}

// GhostActions returns the ghost attribute updates a filter obligation
// applies to the filter's output, nil otherwise.
func (ob *Obligation) GhostActions() []policy.Action {
	if ob.filter == nil {
		return nil
	}
	return ob.filter.ghostActs
}

// MustAccept reports the filter obligation's polarity: true for the §5.2
// propagation form (the filter must accept and transform), false for the
// §4.2 safety form (accepted routes must satisfy the invariant).
func (ob *Obligation) MustAccept() bool {
	return ob.filter != nil && ob.filter.mustAccept
}

// symRouteName is the variable-name prefix every obligation encoding uses
// for its symbolic route, so a model extracted from any encoding of an
// obligation can be re-read by Witness.
const symRouteName = "r"

// Encode builds the obligation's violation formula in ctx: a boolean term
// that is satisfiable iff the local check fails. Each call encodes afresh,
// so concurrent backends encode in private contexts. Concrete (originate)
// obligations have no formula; Encode returns nil for them — use
// EvalConcrete instead.
func (ob *Obligation) Encode(ctx *smt.Context) *smt.Term {
	switch {
	case ob.filter != nil:
		f := ob.filter
		sr := spec.NewSymRoute(ctx, symRouteName, f.u)
		out, acc := f.m.Encode(sr)
		out = applyGhostsSym(out, f.ghostActs)
		wf := sr.WellFormed()
		preT := f.pre.pred.Compile(sr)
		postT := f.post.pred.Compile(out)
		if f.mustAccept {
			// violated when pre ∧ (¬acc ∨ ¬post)
			return ctx.And(wf, preT, ctx.Or(ctx.Not(acc), ctx.Not(postT)))
		}
		// violated when pre ∧ acc ∧ ¬post
		return ctx.And(wf, preT, acc, ctx.Not(postT))
	case ob.implication != nil:
		i := ob.implication
		sr := spec.NewSymRoute(ctx, symRouteName, i.u)
		return ctx.And(sr.WellFormed(), i.pre.pred.Compile(sr), ctx.Not(i.post.pred.Compile(sr)))
	default:
		return nil
	}
}

// Witness reconstructs the concrete counterexample a satisfying model of
// Encode's formula describes. The model addresses variables by name, so it
// may come from any solver instance that decided any encoding of this
// obligation.
func (ob *Obligation) Witness(m *smt.Model) *Counterexample {
	switch {
	case ob.filter != nil:
		f := ob.filter
		sr := spec.NewSymRoute(smt.NewContext(), symRouteName, f.u)
		in := sr.ConcreteRoute(m)
		ce := &Counterexample{Input: in}
		if outR, ok := f.m.Apply(in); ok {
			applyGhostsConcrete(outR, f.ghostActs)
			ce.Output = outR
			ce.Note = "filter accepts but result violates " + f.post.memo().quoted
		} else {
			ce.Note = "filter rejects a route the constraint requires to propagate"
		}
		return ce
	case ob.implication != nil:
		i := ob.implication
		sr := spec.NewSymRoute(smt.NewContext(), symRouteName, i.u)
		return &Counterexample{
			Input: sr.ConcreteRoute(m),
			Note:  "route satisfies " + i.pre.memo().quoted + " but not " + i.post.memo().quoted,
		}
	default:
		return nil
	}
}

// EvalConcrete decides a concrete (originate) obligation by direct
// evaluation. It panics for symbolic obligations.
func (ob *Obligation) EvalConcrete() (bool, *Counterexample) {
	o := ob.originate
	if o == nil {
		panic("core: EvalConcrete on a symbolic obligation")
	}
	for _, r := range o.routes {
		withGhosts := originatedWithGhosts(r, o.e, o.ghosts)
		if !o.inv.pred.Eval(withGhosts) {
			return false, &Counterexample{
				Input: withGhosts,
				Note:  "originated route violates edge invariant " + o.inv.memo().quoted,
			}
		}
	}
	return true, nil
}

// SolveConfig parameterizes one native in-process solve of an obligation.
// The zero value is the stock configuration: unlimited conflicts, VSIDS,
// Luby restarts, negative default phase.
type SolveConfig struct {
	// ConflictBudget bounds SAT conflicts; 0 means unlimited.
	ConflictBudget int64
	// DisableVSIDS switches to a static variable order.
	DisableVSIDS bool
	// DisableRestarts turns off Luby restarts.
	DisableRestarts bool
	// PositivePhase branches fresh variables true-first.
	PositivePhase bool
	// Backend labels the result (CheckResult.Backend); empty means "native".
	Backend string
}

// Solve decides the obligation with the in-process SAT solver under cfg,
// honoring ctx cancellation cooperatively (a cancelled solve returns
// StatusUnknown). It is the native execution path shared by Check.Run and
// internal/solver's backends; portfolio backends call it concurrently with
// different configs, each solve building its own smt.Context. A panic while
// encoding, solving or building the witness is a defect of this one
// obligation, not a verdict: the solve returns StatusUnknown with the panic
// value in the note, so it is never cached and the process survives.
func (ob *Obligation) Solve(ctx context.Context, cfg SolveConfig) (cr CheckResult) {
	t0 := time.Now()
	cr = CheckResult{
		Kind:    ob.Kind,
		Loc:     ob.Loc,
		Desc:    ob.Desc,
		Backend: cfg.Backend,
	}
	if cr.Backend == "" {
		cr.Backend = "native"
	}
	defer func() {
		if v := recover(); v != nil {
			cr.OK, cr.Status = false, StatusUnknown
			cr.Counterexample = &Counterexample{Note: fmt.Sprintf("solve panicked (unknown): %v", v)}
			cr.TotalTime = time.Since(t0)
		}
	}()

	if ob.Concrete() {
		ok, ce := ob.EvalConcrete()
		cr.OK = ok
		if !ok {
			cr.Status = StatusFail
			cr.Counterexample = ce
		}
		cr.TotalTime = time.Since(t0)
		return cr
	}

	if ctx.Err() != nil {
		// Already cancelled: don't pay for encoding a formula nobody will
		// wait for (portfolio losers whose race is over hit this path).
		cr.Status = StatusUnknown
		cr.Counterexample = &Counterexample{Note: "solve cancelled (unknown)"}
		cr.TotalTime = time.Since(t0)
		return cr
	}

	smtCtx := smt.NewContext()
	solver := smt.NewSolver(smtCtx)
	if cfg.ConflictBudget > 0 {
		solver.SetConflictBudget(cfg.ConflictBudget)
	}
	solver.SetDisableVSIDS(cfg.DisableVSIDS)
	solver.SetDisableRestarts(cfg.DisableRestarts)
	solver.SetPositivePhase(cfg.PositivePhase)
	if done := ctx.Done(); done != nil {
		// The SAT solver polls an atomic flag; bridge ctx cancellation onto
		// it. The watcher exits when the solve finishes, so it never leaks.
		var interrupt atomic.Bool
		solver.SetInterrupt(&interrupt)
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-done:
				interrupt.Store(true)
			case <-finished:
			}
		}()
	}
	solver.Assert(ob.Encode(smtCtx))

	ts := time.Now()
	res := solver.Check()
	cr.SolveTime = time.Since(ts)
	cr.NumVars = res.NumVars
	cr.NumCons = res.NumCons
	cr.NumTerms = res.NumTerms
	cr.Solver = SolveStats{
		Conflicts:    res.Stats.Conflicts,
		Decisions:    res.Stats.Decisions,
		Propagations: res.Stats.Propagations,
		Restarts:     res.Stats.Restarts,
		Learned:      res.Stats.LearnedTotal,
	}

	switch res.Status {
	case smt.Unsat:
		cr.OK = true
		cr.Status = StatusOK
	case smt.Sat:
		cr.Status = StatusFail
		cr.Counterexample = ob.Witness(res.Model)
	default:
		cr.Status = StatusUnknown
		note := "solver budget exhausted (unknown)"
		if ctx.Err() != nil {
			note = "solve cancelled (unknown)"
		}
		cr.Counterexample = &Counterexample{Note: note}
	}
	cr.TotalTime = time.Since(t0)
	return cr
}
