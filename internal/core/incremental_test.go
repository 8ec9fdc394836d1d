package core_test

import (
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/policy"
	"lightyear/internal/solver"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// The incremental re-verification behaviours core.IncrementalVerifier used
// to own, checked on internal/delta, which replaced it: reuse is decided by
// check key, so these are tests of the keys as much as of the session.

// session pins a one-problem safety source on a fresh engine. build makes the
// problem for a network state; budget bounds conflicts per check.
func session(t *testing.T, budget int64, build func(*topology.Network) *core.SafetyProblem) *delta.Verifier {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2, Backend: solver.Native(budget)})
	t.Cleanup(eng.Close)
	return delta.NewVerifier(eng, netgen.Suite{Name: "test",
		Problems: func(n *topology.Network, _ netgen.SuiteParams, _ netgen.Scope) []netgen.Problem {
			return []netgen.Problem{{Name: "p", Safety: build(n)}}
		}}, netgen.SuiteParams{})
}

func run(t *testing.T, res *delta.Result, err error) *delta.Result {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rebind returns a clone of n with one import policy replaced.
func rebind(n *topology.Network, e topology.Edge, name string, acts ...policy.Action) *topology.Network {
	c := n.Clone()
	c.SetImport(e, &policy.RouteMap{Name: name,
		Clauses: []policy.Clause{{Seq: 10, Actions: acts, Permit: true}}})
	return c
}

func TestIncrementalFirstRunColdSecondRunWarm(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	v := session(t, 0, netgen.Fig1NoTransitProblem)
	base, err := v.Baseline(n)
	if run(t, base, err); !base.OK || base.ReusedResults != 0 {
		t.Fatalf("first run: ok=%v reused=%d, want a cold verified run", base.OK, base.ReusedResults)
	}
	// The same content in a different object: every key must repeat.
	upd, err := v.Update(netgen.Fig1(netgen.Fig1Options{}))
	if run(t, upd, err); !upd.OK || upd.ReusedResults != upd.TotalChecks {
		t.Fatalf("second run reused %d of %d checks, want all", upd.ReusedResults, upd.TotalChecks)
	}
}

func TestIncrementalOnlyDirtyChecksRerun(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	v := session(t, 0, netgen.Fig1NoTransitProblem)
	v.Baseline(n)
	// Change one import policy: only the check on that policy re-runs.
	upd, err := v.Update(rebind(n, topology.Edge{From: "R1", To: "R3"}, "r3-import-r1-v2", policy.SetLocalPref{Value: 80}))
	if run(t, upd, err); !upd.OK {
		t.Fatal("still verifiable after benign change")
	}
	if upd.DirtyChecks != 1 || upd.ReusedResults != upd.TotalChecks-1 {
		t.Fatalf("dirty %d, reused %d of %d, want exactly one dirty check", upd.DirtyChecks, upd.ReusedResults, upd.TotalChecks)
	}
}

func TestIncrementalDetectsNewBug(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	v := session(t, 0, netgen.Fig1NoTransitProblem)
	v.Baseline(n)
	// Introduce the community-stripping bug.
	upd, err := v.Update(rebind(n, topology.Edge{From: "R1", To: "R2"}, "r2-import-r1-buggy", policy.ClearCommunities{}))
	if run(t, upd, err); upd.OK {
		t.Fatal("bug must be detected on incremental re-run")
	}
	rep := upd.Problems[0].Report
	if fails := rep.Failures(); len(fails) != 1 || fails[0].Loc.String() != "R1 -> R2" {
		t.Fatalf("bug should localize at R1 -> R2:\n%s", rep.Summary())
	}
	// Fix it again: retained results must not mask the fix.
	if fixed, err := v.Update(n); run(t, fixed, err) == nil || !fixed.OK {
		t.Fatalf("fix not picked up:\n%s", fixed.Problems[0].Report.Summary())
	}
}

func TestIncrementalInvariantChangeInvalidatesAll(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	strengthen := false
	v := session(t, 0, func(n *topology.Network) *core.SafetyProblem {
		p := netgen.Fig1NoTransitProblem(n)
		if strengthen {
			// A different default invariant: every check that reads it is dirty.
			inv := core.NewInvariants(spec.And(p.Invariants.At(n, core.AtRouter("R1")), spec.True()))
			inv.SetEdge(topology.Edge{From: "R2", To: "ISP2"}, p.Invariants.At(n, core.AtEdge(topology.Edge{From: "R2", To: "ISP2"})))
			p.Invariants = inv
		}
		return p
	})
	base, _ := v.Baseline(n)
	strengthen = true
	// A new network object, or the unchanged-state fast path would answer.
	c := n.Clone()
	c.AddRouter("spare", 65000)
	upd, err := v.Update(c)
	if run(t, upd, err); upd.ReusedResults >= base.TotalChecks/2 {
		t.Fatalf("reused %d of %d checks after the default invariant changed", upd.ReusedResults, upd.TotalChecks)
	}
	if v.ResultCount() == 0 {
		t.Fatal("retained results should be repopulated")
	}
}

// TestIncrementalVerifierDoesNotRetainUnknown: a budget-exhausted result is
// not a verdict and must be re-solved on the next run, not served from the
// session's retained results.
func TestIncrementalVerifierDoesNotRetainUnknown(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	v := session(t, 1, func(n *topology.Network) *core.SafetyProblem { return netgen.StressProblem(n, 4) })
	base, err := v.Baseline(n)
	if run(t, base, err); base.Unknown == 0 {
		t.Fatal("stress problem decided under a 1-conflict budget; expected unknowns")
	}
	upd, err := v.Update(n.Clone())
	if run(t, upd, err); upd.Unknown != base.Unknown {
		t.Fatalf("second run unknowns = %d, want %d", upd.Unknown, base.Unknown)
	}
	if upd.ReusedResults > upd.TotalChecks-base.Unknown {
		t.Fatalf("reused %d of %d checks; the %d unknowns must not be served from retained results",
			upd.ReusedResults, upd.TotalChecks, base.Unknown)
	}
}
