package core

import (
	"fmt"

	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// PathStep is one location ℓ_i on a liveness witness path together with its
// constraint C_i (§5.1). For router steps, PrefixPred must describe the set
// Prefix(C_i) — the prefixes of routes satisfying C_i — which the
// no-interference check quantifies over; it is typically the prefix
// conjunct of C_i itself.
type PathStep struct {
	Loc        Location
	Constraint spec.Pred
	PrefixPred spec.Pred // routers only; ignored for edge steps
}

// LivenessProblem is the input to modular liveness verification (§5.1):
// the network, the property (ℓ, P), a topological path ℓ_1..ℓ_n = ℓ with a
// constraint per step, ghost definitions, and the invariants proving the
// no-interference safety obligations.
type LivenessProblem struct {
	Network  *topology.Network
	Property Property
	Steps    []PathStep
	Ghosts   []GhostDef

	// InterferenceInvariants prove, for each router R = ℓ_i on the path, the
	// safety property (R, Prefix(r) ∈ Prefix(C_i) ⇒ C_i(r)) using the §4
	// machinery. Nil skips those sub-proofs (the report then only
	// establishes propagation, which is unsound in general — Validate
	// rejects it unless SkipInterference is set for testing).
	InterferenceInvariants *Invariants

	// SkipInterference omits the no-interference safety sub-proofs. Only
	// for experiments that measure propagation checks in isolation.
	SkipInterference bool
}

// Validate checks that the path is well-formed per §5.1: alternating
// router/edge locations forming a topological path whose last location is
// the property location, with one constraint per step.
func (p *LivenessProblem) Validate() error {
	n := p.Network
	if len(p.Steps) == 0 {
		return fmt.Errorf("liveness: empty path")
	}
	for i, s := range p.Steps {
		if s.Constraint == nil {
			return fmt.Errorf("liveness: step %d (%s) has no constraint", i, s.Loc)
		}
		if s.Loc.IsEdge() {
			if !n.HasEdge(s.Loc.Edge()) {
				return fmt.Errorf("liveness: step %d: edge %s not in topology", i, s.Loc)
			}
		} else {
			if node := n.Node(s.Loc.Router()); node == nil || node.External {
				return fmt.Errorf("liveness: step %d: %s is not a configured router", i, s.Loc)
			}
			if s.PrefixPred == nil && !p.SkipInterference {
				return fmt.Errorf("liveness: router step %d (%s) needs PrefixPred for the no-interference check", i, s.Loc)
			}
		}
		if i+1 < len(p.Steps) {
			next := p.Steps[i+1].Loc
			if s.Loc.IsEdge() {
				// ℓ_i = A→B requires ℓ_{i+1} = B.
				if next.IsEdge() || next.Router() != s.Loc.Edge().To {
					return fmt.Errorf("liveness: step %d: edge %s must be followed by router %s", i, s.Loc, s.Loc.Edge().To)
				}
			} else {
				// ℓ_i = R requires ℓ_{i+1} = R→N.
				if !next.IsEdge() || next.Edge().From != s.Loc.Router() {
					return fmt.Errorf("liveness: step %d: router %s must be followed by an outgoing edge", i, s.Loc)
				}
			}
		}
	}
	last := p.Steps[len(p.Steps)-1].Loc
	if last.String() != p.Property.Loc.String() {
		return fmt.Errorf("liveness: path ends at %s but property is at %s", last, p.Property.Loc)
	}
	if p.InterferenceInvariants == nil && !p.SkipInterference {
		return fmt.Errorf("liveness: InterferenceInvariants required (or set SkipInterference)")
	}
	return nil
}

// universe assembles the attribute alphabet for the problem.
func (p *LivenessProblem) universe() *spec.Universe {
	u := p.Network.Universe()
	p.Property.Pred.AddToUniverse(u)
	for _, s := range p.Steps {
		s.Constraint.AddToUniverse(u)
		if s.PrefixPred != nil {
			s.PrefixPred.AddToUniverse(u)
		}
	}
	if p.InterferenceInvariants != nil {
		p.InterferenceInvariants.AddToUniverse(u)
	}
	addGhostsToUniverse(u, p.Ghosts)
	return u
}

// Checks generates the liveness checks of §5.2:
//
//   - propagation checks along consecutive path steps (export for router→edge
//     steps, import for edge→router steps), each requiring the filter to
//     accept C_i routes and produce C_{i+1} routes;
//   - the final implication C_n ⊆ P;
//   - for each router step, the no-interference safety property
//     (R, PrefixPred ⇒ C_i) proven with its own invariants via the §4 checks.
func (p *LivenessProblem) Checks(opts Options) ([]Check, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	u := p.universe()
	n := p.Network
	ghosts := newGhostTable(p.Ghosts)
	var checks []Check

	for i := 0; i+1 < len(p.Steps); i++ {
		// ℓ_i = N→R edge, ℓ_{i+1} = R: the import must accept C_i routes and
		// yield C_{i+1} routes; ℓ_i = R, ℓ_{i+1} = R→N: the export must.
		cur, next := p.Steps[i], p.Steps[i+1]
		importSide := cur.Loc.IsEdge()
		e := next.Loc.Edge()
		if importSide {
			e = cur.Loc.Edge()
			if n.IsExternal(e.To) {
				return nil, fmt.Errorf("liveness: import step into external node %s", e.To)
			}
		}
		f := filterObligation{u: u, m: n.Export(e), mustAccept: true, importSide: importSide}
		if importSide {
			f.m = n.Import(e)
		}
		checks = append(checks, filterCheck(PropagationCheck, e, f, f.m.Fingerprint(), ghosts.onFilter(e, importSide),
			&predicate{pred: cur.Constraint}, &predicate{pred: next.Constraint}, opts))
	}

	lastStep := p.Steps[len(p.Steps)-1]
	checks = append(checks, implicationCheck(p.Property.Loc, u,
		&predicate{pred: lastStep.Constraint}, &predicate{pred: p.Property.Pred}, true, opts))

	if !p.SkipInterference {
		for _, s := range p.Steps {
			if s.Loc.IsEdge() {
				continue
			}
			// The sub-proof's checks are relabeled as InterferenceCheck.
			at := s.Loc
			for _, c := range p.interference(s).Checks(opts) {
				checks = append(checks, relabel(c, InterferenceCheck, &at, opts))
			}
		}
	}
	return checks, nil
}

// NumChecks returns len(p.Checks(opts)) without generating any check, and
// the error Checks would return: one propagation check per pair of
// consecutive steps, the implication and, unless SkipInterference is set,
// each router step's no-interference safety checks.
func (p *LivenessProblem) NumChecks() (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	count := len(p.Steps)
	if !p.SkipInterference {
		for _, s := range p.Steps {
			if !s.Loc.IsEdge() {
				count += p.interference(s).NumChecks()
			}
		}
	}
	return count, nil
}

// interference is the no-interference obligation at router step s, itself a
// safety property (§5.2): at router R, any acceptable route whose prefix is
// in Prefix(C_i) must satisfy C_i. It is proven with the interference
// invariants.
func (p *LivenessProblem) interference(s PathStep) *SafetyProblem {
	return &SafetyProblem{
		Network: p.Network,
		Property: Property{
			Loc:  s.Loc,
			Pred: spec.Implies(s.PrefixPred, s.Constraint),
			Desc: fmt.Sprintf("no interference at %s", s.Loc),
		},
		Invariants: p.InterferenceInvariants,
		Ghosts:     p.Ghosts,
	}
}

// relabel re-identifies a sub-check as a no-interference obligation of the
// liveness proof while keeping its own location in the description. The
// relabeled check shares the inner check's obligation content — it decides
// the same formula — but reports a different identity, so it caches under a
// key derived from (kind, path location, inner key) rather than the inner
// key itself. With declarative obligations this is a pure identity rewrite:
// no wrapping closure is needed.
func relabel(c Check, kind CheckKind, at *Location, opts Options) Check {
	ob := *c.ob // shallow copy: content pointers shared, identity rewritten
	ob.Kind, ob.relabeledFor = kind, at
	if c.key != "" {
		// One fingerprint where every other family has two or more.
		ob.key = composeKey(kind, *at, false, spec.Sum(c.key))
	}
	return newCheck(&ob, opts)
}

// VerifyLiveness runs all liveness checks. If the report is OK, then for
// every valid trace in which (a) a route satisfying C_1 arrives at ℓ_1 and
// (b) no link on the path fails, a route satisfying P eventually reaches ℓ
// (Theorem §5.3). Failures elsewhere in the network cannot invalidate the
// conclusion.
func VerifyLiveness(p *LivenessProblem, opts Options) (*Report, error) {
	checks, err := p.Checks(opts)
	if err != nil {
		return nil, err
	}
	return runChecks(p.Property, checks, opts), nil
}
