// Package solver is the pluggable solving layer between check generation
// (core.Obligation) and check execution: a Backend decides one declarative
// obligation under a budget, and different backends trade latency,
// throughput, and robustness differently.
//
// The paper's local checks are independent SAT queries, which makes the
// solver the natural scaling seam — the same modularity-for-scale move the
// paper makes at the network layer. Three backends ship:
//
//   - native: one in-process CDCL solve per obligation (the classic path);
//   - portfolio: races N heuristic variants of the native solver (VSIDS vs
//     static order, phase polarity, restarts on/off) and takes the first
//     verdict, cancelling the losers via context — robust against a single
//     heuristic stalling on an adversarial instance;
//   - tiered: a small conflict-budget attempt first, escalating to the full
//     budget only on Unknown — cheap checks stay cheap, hard checks still
//     finish, and the quick tier bounds tail latency for the common case.
//
// Backends are selected by name through Spec (the JSON form used by plan
// requests, the lightyear -solver flag, and lyserve), or constructed
// directly. All backends are stateless and safe for concurrent use; the
// engine calls Solve from many workers at once.
package solver

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lightyear/internal/core"
)

// Budget bounds one obligation solve.
type Budget struct {
	// Conflicts caps SAT conflicts per solve attempt; 0 means unlimited.
	Conflicts int64
}

// Outcome is a backend's answer for one obligation: the check result
// (identity fields carry the obligation's identity; callers re-stamp them
// for relabeled checks) plus routing metadata the engine aggregates into
// per-backend statistics.
type Outcome struct {
	core.CheckResult

	// Raced is the number of solver variants raced for this obligation
	// (portfolio; 0 or 1 elsewhere).
	Raced int
	// Escalated reports that a tiered solve exhausted its quick budget and
	// re-solved at full budget.
	Escalated bool
}

// Backend decides obligations. Implementations must be safe for concurrent
// use and must honor ctx cancellation: a cancelled solve returns an Outcome
// with StatusUnknown rather than blocking.
type Backend interface {
	// Name is the backend's registry name ("native", "portfolio", "tiered").
	Name() string
	// Solve decides one obligation under the budget.
	Solve(ctx context.Context, ob *core.Obligation, b Budget) Outcome
}

// SameConfig reports whether two backends are interchangeable: the same
// instance, or instances exposing equal configuration fingerprints (the
// optional Fingerprint() string method the built-in backends implement).
// Execution substrates use it to decide whether an Unknown from one job's
// solve may stand in for another job's — equal configurations would only
// reproduce the same give-up.
func SameConfig(a, b Backend) bool {
	if a == b {
		return true
	}
	af, aok := a.(interface{ Fingerprint() string })
	bf, bok := b.(interface{ Fingerprint() string })
	return aok && bok && af.Fingerprint() == bf.Fingerprint()
}

// Spec is the serializable backend selection carried by plan requests
// (`"solver": {"backend": "portfolio", "budget": 4096}`), the lightyear
// -solver flag, and lyserve v2 request bodies.
type Spec struct {
	// Backend names the backend; empty means "native".
	Backend string `json:"backend,omitempty"`
	// Budget is the per-check conflict budget. For native and portfolio it
	// caps every solve (0 = unlimited, or the caller's budget); for tiered
	// it is the quick tier's budget (0 = DefaultTierBudget), with escalation
	// running at the caller's budget.
	Budget int64 `json:"budget,omitempty"`
}

// String renders the spec as the CLI accepts it: "backend" or
// "backend:budget".
func (s Spec) String() string {
	name := s.Backend
	if name == "" {
		name = "native"
	}
	if s.Budget > 0 {
		return fmt.Sprintf("%s:%d", name, s.Budget)
	}
	return name
}

// ParseSpec parses the -solver flag syntax: "backend[:budget]".
func ParseSpec(s string) (Spec, error) {
	var out Spec
	name, rest, ok := strings.Cut(s, ":")
	out.Backend = strings.TrimSpace(name)
	if !Known(out.Backend) {
		return out, fmt.Errorf("solver: unknown backend %q (have: %s)", out.Backend, strings.Join(Names(), ", "))
	}
	if ok {
		n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		if err != nil || n <= 0 {
			return out, fmt.Errorf("solver: bad budget %q in %q (want a positive integer)", rest, s)
		}
		out.Budget = n
	}
	return out, nil
}

// registry is the single source of backend names: New, Known, and Names
// all derive from it, so adding a backend is one entry here.
var registry = map[string]func(budget int64) Backend{
	"native":    Native,
	"portfolio": Portfolio,
	"tiered":    Tiered,
}

// New constructs the backend a spec names ("" selects native).
func New(s Spec) (Backend, error) {
	name := s.Backend
	if name == "" {
		name = "native"
	}
	mk, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("solver: unknown backend %q (have: %s)", s.Backend, strings.Join(Names(), ", "))
	}
	return mk(s.Budget), nil
}

// Known reports whether name selects a backend ("" selects native).
func Known(name string) bool {
	if name == "" {
		return true
	}
	_, ok := registry[name]
	return ok
}

// Names returns the selectable backend names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// effective resolves the conflict budget for one solve: a backend-bound
// budget (from Spec.Budget) overrides the caller's, otherwise the caller's
// applies.
func effective(bound int64, b Budget) int64 {
	if bound > 0 {
		return bound
	}
	return b.Conflicts
}
