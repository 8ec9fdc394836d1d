package core_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/netgen"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// testdata/fail_lines.golden holds the FAIL and UNKNOWN lines the commit
// before lazy descriptions printed for the scenarios below (it was produced
// by running this file, with -update, in that tree: the scenarios use only
// API both trees have). Descriptions are now rendered on demand from the
// obligation, so the test pins every description form to that text, byte
// for byte.
var updateGolden = flag.Bool("update", false, "rewrite testdata/fail_lines.golden")

const goldenPath = "testdata/fail_lines.golden"

var smallWAN = netgen.WANParams{Regions: 2, RoutersPerRegion: 2, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 2}

// failLines runs every problem of the named suites on n and returns each
// report's FAIL and UNKNOWN lines, prefixed with the problem's name.
func failLines(t *testing.T, n *topology.Network, regions int, suites ...string) []string {
	t.Helper()
	var out []string
	for _, name := range suites {
		s, ok := netgen.Lookup(name)
		if !ok {
			t.Fatalf("no suite %q", name)
		}
		for _, p := range s.Build(n, netgen.SuiteParams{Regions: regions}) {
			var rep *core.Report
			switch {
			case p.Safety != nil:
				rep = core.VerifySafety(p.Safety, core.Options{Workers: 1})
			case p.Liveness != nil:
				var err error
				if rep, err = core.VerifyLiveness(p.Liveness, core.Options{Workers: 1}); err != nil {
					continue // an optional path absent from this network
				}
			}
			out = append(out, reportLines(p.Name, rep)...)
		}
	}
	return out
}

func reportLines(name string, rep *core.Report) []string {
	var out []string
	for _, line := range strings.Split(rep.Summary(), "\n") {
		if strings.HasPrefix(line, "FAIL [") || strings.HasPrefix(line, "UNKNOWN [") {
			out = append(out, name+": "+line)
		}
	}
	return out
}

func goldenScenarios(t *testing.T) []string {
	t.Helper()
	var out []string
	section := func(name string, lines []string) {
		out = append(out, "== "+name)
		out = append(out, lines...)
	}
	section("wan missing-bogon", failLines(t, netgen.WAN(smallWAN, netgen.WANBugs{MissingBogonFilter: true}), 2, "wan-peering"))
	section("wan missing-local-pref", failLines(t, netgen.WAN(smallWAN, netgen.WANBugs{MissingLocalPref: true}), 2, "wan-peering"))
	section("wan wrong-region-community", failLines(t, netgen.WAN(smallWAN, netgen.WANBugs{WrongRegionCommunity: true}), 2,
		"wan-ip-reuse", "wan-ip-liveness"))
	for _, o := range []netgen.Fig1Options{{OmitTransitTag: true}, {StripAtR2: true}, {SkipExportFilter: true}, {ForgetStripAtR3: true}} {
		section(fmt.Sprintf("fig1 %+v", o), failLines(t, netgen.Fig1(o), 0, "fig1-no-transit", "fig1-liveness"))
	}
	for _, ref := range []string{"ring:1:size=5,bug=no-class-e", "waxman:7:size=8,bug=max-prefix-length", "tree:3:depth=2,bug=no-private-asn"} {
		m, err := corpus.Parse(ref)
		if err != nil {
			t.Fatal(err)
		}
		n, _, err := m.Build()
		if err != nil {
			t.Fatal(err)
		}
		section("corpus "+ref, failLines(t, n, 0, corpus.PropertySuite))
	}

	// The forms no planted bug reaches: a safety implication, the liveness
	// proof's final implication and an export-side propagation step, an
	// originate check, and an undecided check.
	fig1 := netgen.Fig1(netgen.Fig1Options{})
	safety := netgen.Fig1NoTransitProblem(fig1)
	safety.Property.Pred = spec.False()
	section("safety implication", reportLines("p", core.VerifySafety(safety, core.Options{Workers: 1})))

	live := netgen.Fig1LivenessProblem(fig1)
	live.Property.Pred = spec.False()
	for i := range live.Steps {
		if live.Steps[i].Loc.IsEdge() {
			live.Steps[i].Constraint = spec.And(live.Steps[i].Constraint, spec.LocalPrefEquals(7))
		}
	}
	rep, err := core.VerifyLiveness(live, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	section("liveness implication and export steps", reportLines("p", rep))

	n := topology.New()
	n.AddRouter("A", 1)
	n.AddRouter("B", 1)
	e := n.AddEdge("A", "B")
	n.AddOriginate(e, routemodel.NewRoute(routemodel.MustPrefix("10.0.0.0/8")))
	inv := core.NewInvariants(spec.True()).SetEdge(e, spec.PrefixLenAtLeast(16))
	section("originate", reportLines("p", core.VerifySafety(&core.SafetyProblem{Network: n,
		Property: core.Property{Loc: core.AtRouter("B"), Pred: spec.True()}, Invariants: inv}, core.Options{Workers: 1})))

	section("unknown", reportLines("p", verifyBudgeted(netgen.StressProblem(fig1, 4), 1)))
	return out
}

func TestFailLinesMatchPrePRText(t *testing.T) {
	got := strings.Join(goldenScenarios(t), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from the pre-PR text:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, the pre-PR text has %d", len(gl), len(wl))
	}
	for _, form := range []string{"FAIL [import]", "FAIL [export]", "FAIL [originate]", "FAIL [implication]",
		"FAIL [propagation]", "propagation: export at", "FAIL [no-interference]", "[for ", "final path constraint", "UNKNOWN ["} {
		if !strings.Contains(got, form) {
			t.Errorf("the scenarios never print %q", form)
		}
	}
}
