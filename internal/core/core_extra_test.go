package core_test

import (
	"context"
	"strings"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/netgen"
	"lightyear/internal/solver"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

func TestLocationAccessors(t *testing.T) {
	r := core.AtRouter("R1")
	if r.IsEdge() || r.Router() != "R1" || r.String() != "R1" {
		t.Fatalf("router location: %v", r)
	}
	e := core.AtEdge(topology.Edge{From: "A", To: "B"})
	if !e.IsEdge() || e.Edge().From != "A" || e.String() != "A -> B" {
		t.Fatalf("edge location: %v", e)
	}
}

func TestPropertyString(t *testing.T) {
	p := core.Property{Loc: core.AtRouter("R1"), Pred: spec.True(), Desc: "demo"}
	if !strings.Contains(p.String(), "demo") || !strings.Contains(p.String(), "R1") {
		t.Fatalf("Property.String = %q", p.String())
	}
	p2 := core.Property{Loc: core.AtRouter("R1"), Pred: spec.True()}
	if p2.String() == "" {
		t.Fatal("empty string without desc")
	}
}

func TestInvariantsDefaults(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	// Nil default behaves as True.
	inv := core.NewInvariants(nil)
	got := inv.At(n, core.AtRouter("R1"))
	if got.String() != spec.True().String() {
		t.Fatalf("nil default should be True, got %q", got)
	}
	// External-source edges are always True even when overridden.
	inv2 := core.NewInvariants(spec.False())
	inv2.SetEdge(topology.Edge{From: "ISP1", To: "R1"}, spec.False())
	got = inv2.At(n, core.AtEdge(topology.Edge{From: "ISP1", To: "R1"}))
	if got.String() != spec.True().String() {
		t.Fatalf("external edges must be unconstrained, got %q", got)
	}
	// Explicit settings win over the default elsewhere.
	inv3 := core.NewInvariants(spec.False())
	inv3.SetRouter("R1", spec.True())
	if inv3.At(n, core.AtRouter("R1")).String() != spec.True().String() {
		t.Fatal("explicit router invariant ignored")
	}
	if inv3.At(n, core.AtRouter("R2")).String() != spec.False().String() {
		t.Fatal("default not applied")
	}
}

func TestCheckKindStrings(t *testing.T) {
	kinds := []core.CheckKind{
		core.ImportCheck, core.ExportCheck, core.OriginateCheck,
		core.ImplicationCheck, core.PropagationCheck, core.InterferenceCheck,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind string %q empty or duplicated", s)
		}
		seen[s] = true
	}
}

// verifyBudgeted is VerifySafety with every check decided by the native
// backend bounded to budget conflicts, the one place a solve is bounded.
func verifyBudgeted(p *core.SafetyProblem, budget int64) *core.Report {
	b := solver.Native(budget)
	var results []core.CheckResult
	for _, c := range p.Checks(core.Options{}) {
		results = append(results, b.Solve(context.Background(), c.Obligation(), solver.Budget{}).CheckResult)
	}
	return core.NewReport(p.Property, results, 0)
}

func TestConflictBudgetMarksUnknownAsFailure(t *testing.T) {
	// An absurdly small budget cannot prove UNSAT for nontrivial checks;
	// the check must conservatively report failure (never a false "pass").
	n := netgen.Fig1(netgen.Fig1Options{})
	p := netgen.Fig1NoTransitProblem(n)
	rep := verifyBudgeted(p, 1)
	for _, f := range rep.Failures() {
		if f.Counterexample == nil {
			t.Fatal("budget-exhausted checks must carry an explanatory note")
		}
	}
	// With budget removed everything passes again.
	if !core.VerifySafety(p, core.Options{}).OK() {
		t.Fatal("must verify without budget")
	}
}

func TestChecksEnumerationWithoutRun(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	p := netgen.Fig1NoTransitProblem(n)
	checks := p.Checks(core.Options{})
	if len(checks) != 22 {
		t.Fatalf("Checks() = %d, want 22", len(checks))
	}
	for _, c := range checks {
		if c.Desc.String() == "" {
			t.Fatal("check missing description")
		}
	}
}

func TestLivenessSkipInterference(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	p := netgen.Fig1LivenessProblem(n)
	p.InterferenceInvariants = nil
	p.SkipInterference = true
	rep, err := core.VerifyLiveness(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Kind == core.InterferenceCheck {
			t.Fatal("interference checks should be skipped")
		}
	}
	if !rep.OK() {
		t.Fatalf("propagation-only proof should pass:\n%s", rep.Summary())
	}
}

func TestCounterexampleStringForms(t *testing.T) {
	var nilCE *core.Counterexample
	if nilCE.String() != "<none>" {
		t.Fatal("nil counterexample rendering")
	}
}

func TestGhostFromExternalsRules(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	g := core.GhostFromExternals("G", n, func(id topology.NodeID) bool { return id == "ISP1" })
	if v, set := g.OnImport(topology.Edge{From: "ISP1", To: "R1"}); !set || !v {
		t.Fatal("source import must set true")
	}
	if v, set := g.OnImport(topology.Edge{From: "ISP2", To: "R2"}); !set || v {
		t.Fatal("non-source external import must set false")
	}
	if _, set := g.OnImport(topology.Edge{From: "R1", To: "R2"}); set {
		t.Fatal("internal import must leave ghost unchanged")
	}
	if g.OnExport != nil {
		t.Fatal("provenance ghost has no export rule")
	}
}
