package solver_test

import (
	"context"
	"reflect"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/netgen"
	"lightyear/internal/solver"
	"lightyear/internal/topology"
)

// suiteNetwork builds a network appropriate for a registered suite.
func suiteNetwork(name string) (*topology.Network, netgen.SuiteParams) {
	switch name {
	case "fullmesh":
		return netgen.FullMesh(4), netgen.SuiteParams{}
	case "wan-peering", "wan-ip-reuse", "wan-ip-liveness":
		p := netgen.WANParams{Regions: 2, RoutersPerRegion: 2, EdgeRouters: 1, DCsPerRegion: 1, PeersPerEdge: 2}
		return netgen.WAN(p, netgen.WANBugs{}), netgen.SuiteParams{Regions: p.Regions}
	default: // the fig1 suites
		return netgen.Fig1(netgen.Fig1Options{}), netgen.SuiteParams{}
	}
}

// obligations enumerates the unique obligations (by semantic key) of every
// problem a suite builds on n. Optional problems whose path is absent are
// skipped, mirroring every execution substrate.
func obligations(t *testing.T, s netgen.Suite, n *topology.Network, params netgen.SuiteParams) []*core.Obligation {
	t.Helper()
	seen := map[string]bool{}
	var out []*core.Obligation
	for _, p := range s.Build(n, params) {
		var checks []core.Check
		var err error
		switch {
		case p.Safety != nil:
			checks = p.Safety.Checks(core.Options{})
		case p.Liveness != nil:
			checks, err = p.Liveness.Checks(core.Options{})
		}
		if err != nil {
			if p.Optional {
				continue
			}
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, c := range checks {
			if k := c.Key(); k == "" || !seen[k] {
				seen[c.Key()] = true
				out = append(out, c.Obligation())
			}
		}
	}
	return out
}

func backends(t *testing.T) map[string]solver.Backend {
	t.Helper()
	out := map[string]solver.Backend{}
	for _, name := range solver.Names() {
		b, err := solver.New(solver.Spec{Backend: name})
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != name {
			t.Fatalf("backend %q reports name %q", name, b.Name())
		}
		out[name] = b
	}
	return out
}

// TestCrossBackendParity: every registered suite must yield identical
// verdicts (the OK/Fail partition of its obligations) under the native,
// portfolio, and tiered backends. Different heuristics may find different
// counterexamples, but the verdict is a property of the formula.
func TestCrossBackendParity(t *testing.T) {
	bs := backends(t)
	for _, s := range netgen.Suites() {
		n, params := suiteNetwork(s.Name)
		obs := obligations(t, s, n, params)
		if len(obs) == 0 {
			t.Fatalf("suite %s produced no obligations", s.Name)
		}
		for _, ob := range obs {
			want := bs["native"].Solve(context.Background(), ob, solver.Budget{})
			if want.Status == core.StatusUnknown {
				t.Fatalf("%s: native left %q unknown with unlimited budget", s.Name, ob.Desc)
			}
			for _, name := range []string{"portfolio", "tiered"} {
				got := bs[name].Solve(context.Background(), ob, solver.Budget{})
				if got.Status != want.Status {
					t.Errorf("suite %s, check %q: %s=%v native=%v",
						s.Name, ob.Desc, name, got.Status, want.Status)
				}
			}
		}
	}
}

// TestCrossBackendParityOnFailures: the backends agree on a network with a
// planted bug, where some obligations are satisfiable (Fail).
func TestCrossBackendParityOnFailures(t *testing.T) {
	bs := backends(t)
	n := netgen.Fig1(netgen.Fig1Options{OmitTransitTag: true})
	p := netgen.Fig1NoTransitProblem(n)
	fails := 0
	for _, c := range p.Checks(core.Options{}) {
		ob := c.Obligation()
		want := bs["native"].Solve(context.Background(), ob, solver.Budget{})
		if want.Status == core.StatusFail {
			fails++
			if want.Counterexample == nil {
				t.Fatalf("failed check %q has no counterexample", ob.Desc)
			}
		}
		for _, name := range []string{"portfolio", "tiered"} {
			got := bs[name].Solve(context.Background(), ob, solver.Budget{})
			if got.Status != want.Status {
				t.Errorf("check %q: %s=%v native=%v", ob.Desc, name, got.Status, want.Status)
			}
			if got.Status == core.StatusFail && got.Counterexample == nil {
				t.Errorf("check %q: %s failed without a counterexample", ob.Desc, name)
			}
		}
	}
	if fails == 0 {
		t.Fatal("buggy network produced no failing obligation")
	}
}

// TestNativeBudgetYieldsUnknown: a conflict budget of 1 cannot decide the
// nontrivial checks; they must come back StatusUnknown, never a wrong
// verdict.
func TestNativeBudgetYieldsUnknown(t *testing.T) {
	b, _ := solver.New(solver.Spec{Backend: "native", Budget: 1})
	p := netgen.StressProblem(netgen.Fig1(netgen.Fig1Options{}), 4)
	unknown := 0
	for _, c := range p.Checks(core.Options{}) {
		out := b.Solve(context.Background(), c.Obligation(), solver.Budget{})
		switch out.Status {
		case core.StatusUnknown:
			unknown++
			if out.OK {
				t.Fatal("unknown result must not claim OK")
			}
		case core.StatusFail:
			t.Fatalf("budgeted solve invented a failure for %q", c.Desc)
		}
	}
	if unknown == 0 {
		t.Fatal("budget 1 decided every check; expected unknowns")
	}
}

// TestTieredEscalation: with a 1-conflict quick tier, hard checks escalate
// to the full budget and still decide — no Unknown leaks out, and at least
// one outcome records the escalation.
func TestTieredEscalation(t *testing.T) {
	b := solver.Tiered(1)
	p := netgen.StressProblem(netgen.Fig1(netgen.Fig1Options{}), 4)
	escalated := 0
	for _, c := range p.Checks(core.Options{}) {
		out := b.Solve(context.Background(), c.Obligation(), solver.Budget{})
		if out.Status == core.StatusUnknown {
			t.Fatalf("tiered with unlimited escalation left %q unknown", c.Desc)
		}
		if out.Escalated {
			escalated++
			if out.Backend != "tiered/full" {
				t.Fatalf("escalated result labeled %q, want tiered/full", out.Backend)
			}
		}
	}
	if escalated == 0 {
		t.Fatal("1-conflict quick tier escalated nothing; expected escalations")
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in      string
		want    solver.Spec
		wantErr bool
	}{
		{in: "native", want: solver.Spec{Backend: "native"}},
		{in: "portfolio", want: solver.Spec{Backend: "portfolio"}},
		{in: "tiered:1000", want: solver.Spec{Backend: "tiered", Budget: 1000}},
		{in: "remote", wantErr: true},
		{in: "remote:h1:9001,h2:9001", wantErr: true},
		{in: "bogus", wantErr: true},
		{in: "tiered:x", wantErr: true},
		{in: "tiered:-5", wantErr: true},
		{in: "native:1e3", wantErr: true},
		{in: "native:100abc", wantErr: true},
	}
	for _, c := range cases {
		got, err := solver.ParseSpec(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseSpec(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, name := range []string{"bogus", "remote"} {
		if _, err := solver.New(solver.Spec{Backend: name}); err == nil {
			t.Errorf("New accepted the unknown backend %q", name)
		}
	}
	if got, want := solver.Names(), []string{"native", "portfolio", "tiered"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
}

// TestSameConfig: identically-specced backends from separate New calls are
// interchangeable; different budgets are not.
func TestSameConfig(t *testing.T) {
	mk := func(s solver.Spec) solver.Backend {
		b, err := solver.New(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, name := range solver.Names() {
		spec := solver.Spec{Backend: name}
		a := mk(spec)
		b := mk(spec)
		if !solver.SameConfig(a, b) {
			t.Errorf("two default %s backends not recognized as same config", name)
		}
		spec.Budget = 7
		c := mk(spec)
		if solver.SameConfig(a, c) {
			t.Errorf("%s backends with different budgets reported as same config", name)
		}
	}
	// Variant heuristic flags are part of a portfolio's configuration, not
	// just the variant names.
	p1 := solver.PortfolioOf(0, []solver.Variant{{Name: "v", DisableVSIDS: true}})
	p2 := solver.PortfolioOf(0, []solver.Variant{{Name: "v", PositivePhase: true}})
	if solver.SameConfig(p1, p2) {
		t.Error("portfolios with same variant names but different flags reported as same config")
	}
	p3 := solver.PortfolioOf(0, []solver.Variant{{Name: "v", DisableVSIDS: true}})
	if !solver.SameConfig(p1, p3) {
		t.Error("identically-configured portfolios not recognized as same config")
	}
}
