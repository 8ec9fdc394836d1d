// Package migrate verifies migration plans: ordered sequences of
// configuration deltas applied to a pinned baseline network, with every
// intermediate state checked against the plan's properties — the question
// operators actually ask ("is this *deployment* safe?"), not just whether
// the final state is.
//
// A Plan names a baseline network source, a property scope, and a list of
// steps; each step is either a full replacement config (internal/config DSL)
// or a serializable netgen.MutationSpec edit applied to the previous state.
// Run walks the sequence on a delta.Verifier, so each step re-solves only
// the dirty subset its own diff implies, reports the first violating step
// with its failing checks and witnesses, and — when the plan declares the
// steps an unordered change *set* — searches the orderings for a safe one:
//
//	c, err := migrate.Compile(p, nil)
//	res, err := migrate.Run(ctx, eng, c, migrate.RunConfig{Sink: onEvent})
//
// The search is a DFS over permutations with two cuts that exploit the
// modular check structure: intermediate states are memoized by semantic
// network fingerprint (two orders reaching the same state share one
// verdict), and adjacent steps that touch disjoint routers commute — their
// per-edge-local checks verify identically in either order — so only the
// canonical interleaving of each commuting class is explored. The search is
// bounded by a configurable budget of verified states; exhausting it, or
// proving every ordering hits a violating or inapplicable step, yields an
// Infeasibility explanation (the longest safe prefix found and what blocked
// each continuation).
//
// Admission is whole-plan: one engine.Reserve covering the plan's full check
// cost is taken up front and every step runs under it (steps execute
// sequentially, so the plan never holds more than one state's checks in
// flight), making an over-quota migration fail before its first step rather
// than mid-deployment.
package migrate

import (
	"fmt"

	"lightyear/internal/config"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
	"lightyear/internal/topology"
)

// DefaultSearchBudget bounds how many distinct intermediate states an
// unordered plan's safe-order search may verify when the plan does not set
// its own budget. With fingerprint memoization a k-step set has at most
// 2^k - 1 distinct non-initial states, so the default covers sets of ~8
// steps exhaustively.
const DefaultSearchBudget = 256

// MaxSearchSteps caps the size of an unordered change set: beyond this the
// permutation space (even memoized) stops being a sensible synchronous
// request.
const MaxSearchSteps = 10

// Step is one migration step: exactly one of Config (a full replacement
// network in the internal/config DSL) or Mutation (a named edit applied to
// the previous step's state) must be set.
type Step struct {
	Label    string               `json:"label,omitempty"`
	Config   string               `json:"config,omitempty"`
	Mutation *netgen.MutationSpec `json:"mutation,omitempty"`
}

// Plan is the serializable migration request (the `lightyear -migrate` file
// format and, minus Network/Properties/Options which a session pins, the
// POST /v2/sessions/{id}/migrate body).
type Plan struct {
	// Network is the baseline the first step applies to. Required for
	// standalone compilation (Compile); must be absent in session plans
	// (CompileSteps), where the session's pinned state is the baseline.
	Network    *plan.Network   `json:"network,omitempty"`
	Properties []plan.Property `json:"properties,omitempty"`
	Options    plan.Options    `json:"options,omitempty"`

	Steps []Step `json:"steps"`

	// Unordered declares Steps an unordered change set: Run searches for a
	// safe ordering instead of walking the given one. Requires every step
	// to be a mutation (full configs don't compose under reordering).
	Unordered bool `json:"unordered,omitempty"`
	// SearchBudget bounds the number of intermediate states the safe-order
	// search may verify (0 = DefaultSearchBudget).
	SearchBudget int `json:"search_budget,omitempty"`
}

// compiledStep is one validated step. Config steps are materialized at
// compile time (parse errors are usage errors, not step violations).
type compiledStep struct {
	label    string
	mutation *netgen.MutationSpec
	network  *topology.Network
}

// Compiled is a validated migration plan ready to Run.
type Compiled struct {
	Plan  Plan
	Inner *plan.Compiled // the property scope every intermediate state is checked against

	steps []compiledStep
}

// Compile validates and materializes a standalone plan: the baseline network
// compiles through internal/plan (so properties, scopes, solver and tenant
// options follow the exact plan.Request rules), then every step compiles
// against it. Malformed plans return plan.RequestError.
func Compile(p Plan, res plan.Resolver) (*Compiled, error) {
	if p.Network == nil {
		return nil, plan.RequestErrorf("migrate: a baseline network is required")
	}
	inner, err := plan.Compile(plan.Request{Network: *p.Network, Properties: p.Properties, Options: p.Options}, res)
	if err != nil {
		return nil, err
	}
	c := &Compiled{Plan: p, Inner: inner}
	if err := c.compileSteps(); err != nil {
		return nil, err
	}
	return c, nil
}

// CompileSteps compiles just a plan's step list against an already-compiled
// inner plan — the lyserve path, where a session pins network, properties,
// and options, and the migrate body may only carry steps.
func CompileSteps(p Plan, inner *plan.Compiled) (*Compiled, error) {
	if p.Network != nil || len(p.Properties) > 0 {
		return nil, plan.RequestErrorf("migrate: network and properties are pinned by the session")
	}
	c := &Compiled{Plan: p, Inner: inner}
	if err := c.compileSteps(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Compiled) compileSteps() error {
	p := c.Plan
	if len(p.Steps) == 0 {
		return plan.RequestErrorf("migrate: at least one step is required")
	}
	if p.SearchBudget < 0 {
		return plan.RequestErrorf("migrate: search_budget must be >= 0, got %d", p.SearchBudget)
	}
	c.steps = make([]compiledStep, len(p.Steps))
	for i, s := range p.Steps {
		cs := compiledStep{label: s.Label}
		if cs.label == "" {
			cs.label = fmt.Sprintf("step-%d", i)
		}
		switch {
		case s.Config != "" && s.Mutation != nil:
			return plan.RequestErrorf("migrate: step %d (%s): exactly one of config and mutation must be set", i, cs.label)
		case s.Config != "":
			n, err := config.Parse(s.Config)
			if err != nil {
				return plan.RequestErrorf("migrate: step %d (%s): %v", i, cs.label, err)
			}
			if err := c.Inner.ValidateScopes(n); err != nil {
				return plan.RequestErrorf("migrate: step %d (%s): %v", i, cs.label, err)
			}
			cs.network = n
		case s.Mutation != nil:
			if err := s.Mutation.Validate(); err != nil {
				return plan.RequestErrorf("migrate: step %d (%s): %v", i, cs.label, err)
			}
			m := *s.Mutation
			cs.mutation = &m
		default:
			return plan.RequestErrorf("migrate: step %d (%s): a config or mutation is required", i, cs.label)
		}
		c.steps[i] = cs
	}
	if p.Unordered {
		if len(c.steps) < 2 {
			return plan.RequestErrorf("migrate: unordered search needs at least two steps")
		}
		if len(c.steps) > MaxSearchSteps {
			return plan.RequestErrorf("migrate: unordered search is bounded to %d steps, got %d", MaxSearchSteps, len(c.steps))
		}
		for i := range c.steps {
			if c.steps[i].mutation == nil {
				return plan.RequestErrorf("migrate: unordered search requires every step to be a mutation (step %d is a full config)", i)
			}
		}
	}
	return nil
}

// NumSteps returns the number of compiled steps.
func (c *Compiled) NumSteps() int { return len(c.steps) }

// budget returns the effective search budget.
func (c *Compiled) budget() int {
	if c.Plan.SearchBudget > 0 {
		return c.Plan.SearchBudget
	}
	return DefaultSearchBudget
}
