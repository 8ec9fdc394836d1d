package core_test

import (
	"context"
	"encoding/json"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/netgen"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// roundTrip pushes an obligation through JSON and back.
func roundTrip(t *testing.T, ob *core.Obligation) *core.Obligation {
	t.Helper()
	w, err := core.EncodeObligation(ob)
	if err != nil {
		t.Fatalf("encode %q: %v", ob.Key(), err)
	}
	blob, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("marshal %q: %v", ob.Key(), err)
	}
	var w2 core.ObligationWire
	if err := json.Unmarshal(blob, &w2); err != nil {
		t.Fatalf("unmarshal %q: %v", ob.Key(), err)
	}
	ob2, err := w2.Obligation()
	if err != nil {
		t.Fatalf("decode %q: %v", ob.Key(), err)
	}
	return ob2
}

// TestObligationWireRoundTrip encodes every check of a ghost-bearing safety
// problem (filter, originate, and implication obligations), decodes it, and
// verifies identity (key, kind, location) and semantics (same solve verdict)
// survive the trip.
func TestObligationWireRoundTrip(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	p := netgen.Fig1NoTransitProblem(n)
	checks := p.Checks(core.Options{})
	if len(checks) == 0 {
		t.Fatal("no checks generated")
	}
	families := map[string]bool{}
	for _, c := range checks {
		ob := c.Obligation()
		ob2 := roundTrip(t, ob)

		if ob2.Key() != ob.Key() {
			t.Fatalf("key changed: %q -> %q", ob.Key(), ob2.Key())
		}
		if ob2.Kind != ob.Kind || ob2.Loc.String() != ob.Loc.String() || ob2.Desc.String() != ob.Desc.String() {
			t.Fatalf("identity changed for %q", ob.Key())
		}
		if ob2.Concrete() != ob.Concrete() {
			t.Fatalf("concreteness changed for %q", ob.Key())
		}
		families[ob.Kind.String()] = true

		want := ob.Solve(context.Background(), core.SolveConfig{})
		got := ob2.Solve(context.Background(), core.SolveConfig{})
		if got.Status != want.Status || got.OK != want.OK {
			t.Fatalf("verdict changed for %q: local %v/%v, decoded %v/%v",
				ob.Key(), want.Status, want.OK, got.Status, got.OK)
		}
	}
	for _, kind := range []string{"import", "export", "originate", "implication"} {
		if !families[kind] {
			t.Fatalf("problem generated no %s check; families seen: %v", kind, families)
		}
	}
}

// TestObligationWireFailingCheck verifies a decoded obligation still finds
// the same counterexample class: a failing filter check fails remotely too.
func TestObligationWireFailingCheck(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{OmitTransitTag: true})
	p := netgen.Fig1NoTransitProblem(n)
	failed := 0
	for _, c := range p.Checks(core.Options{}) {
		ob := c.Obligation()
		want := ob.Solve(context.Background(), core.SolveConfig{})
		got := roundTrip(t, ob).Solve(context.Background(), core.SolveConfig{})
		if got.Status != want.Status {
			t.Fatalf("verdict changed for %q: %v vs %v", ob.Key(), want.Status, got.Status)
		}
		if want.Status == core.StatusFail {
			failed++
			if got.Counterexample == nil || got.Counterexample.Input == nil {
				t.Fatalf("decoded failure for %q lost its counterexample", ob.Key())
			}
		}
	}
	if failed == 0 {
		t.Fatal("broken Fig1 produced no failing check")
	}
}

// TestObligationWirePigeonhole ships a named pigeonhole implication (the
// sat-stress workload) through the wire and checks the name — which is what
// check keys hash — and the hard-search verdict both survive.
func TestObligationWirePigeonhole(t *testing.T) {
	php := netgen.StressPigeonholePred(4, 3)
	if php.String() != "pigeonhole(4 pigeons, 3 holes)" {
		t.Fatalf("unexpected pigeonhole rendering %q", php.String())
	}
	n := netgen.Fig1(netgen.Fig1Options{})
	p := &core.SafetyProblem{
		Network: n,
		Property: core.Property{
			Loc:  core.AtEdge(topology.Edge{From: "R2", To: "ISP2"}),
			Pred: spec.Not(php),
		},
		Invariants: core.NewInvariants(spec.Not(php)),
	}
	for _, c := range p.Checks(core.Options{}) {
		if c.Kind != core.ImplicationCheck {
			continue
		}
		ob := c.Obligation()
		ob2 := roundTrip(t, ob)
		if ob2.Key() != ob.Key() {
			t.Fatalf("pigeonhole key changed: %q -> %q", ob.Key(), ob2.Key())
		}
		_, post := ob2.Predicates()
		if post.String() != spec.Not(php).String() {
			t.Fatalf("pigeonhole name lost: %q", post.String())
		}
		want := ob.Solve(context.Background(), core.SolveConfig{})
		got := ob2.Solve(context.Background(), core.SolveConfig{})
		if got.Status != want.Status {
			t.Fatalf("pigeonhole verdict changed: %v vs %v", want.Status, got.Status)
		}
		if want.Solver.Conflicts > 0 && got.Solver.Conflicts == 0 {
			t.Fatal("decoded pigeonhole decided without search; formula structure was lost")
		}
		return
	}
	t.Fatal("no implication check generated")
}

// TestCheckResultWireRoundTrip pushes a failing result (with counterexample
// routes) through the wire.
func TestCheckResultWireRoundTrip(t *testing.T) {
	in := routemodel.NewRoute(routemodel.Prefix{Addr: 10 << 24, Len: 8})
	in.AddCommunity(routemodel.MustCommunity("100:1"))
	in.SetGhost("FromISP1", true)
	in.ASPath = []uint32{174, 3356}
	cr := core.CheckResult{
		Status:         core.StatusFail,
		Backend:        "native",
		Counterexample: &core.Counterexample{Input: in, Note: "boom"},
		NumVars:        7,
		Solver:         core.SolveStats{Conflicts: 3, Decisions: 9},
	}
	blob, err := json.Marshal(core.EncodeCheckResult(cr))
	if err != nil {
		t.Fatal(err)
	}
	var w core.CheckResultWire
	if err := json.Unmarshal(blob, &w); err != nil {
		t.Fatal(err)
	}
	got, err := w.CheckResult()
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != cr.Status || got.OK || got.Backend != "native" || got.NumVars != 7 {
		t.Fatalf("result changed: %+v", got)
	}
	if got.Solver != cr.Solver {
		t.Fatalf("solver stats changed: %+v", got.Solver)
	}
	ce := got.Counterexample
	if ce == nil || ce.Note != "boom" || ce.Input == nil {
		t.Fatalf("counterexample lost: %+v", ce)
	}
	if !ce.Input.HasCommunity(routemodel.MustCommunity("100:1")) || !ce.Input.GhostValue("FromISP1") {
		t.Fatalf("counterexample route attributes lost: %+v", ce.Input)
	}

	// A malformed pair (ok true but status fail) must be rejected, not
	// cached: this is the typed-error path for corrupt worker responses.
	bad := core.CheckResultWire{OK: true, Status: "fail"}
	if _, err := bad.CheckResult(); err == nil {
		t.Fatal("inconsistent ok/status pair decoded without error")
	}
}
