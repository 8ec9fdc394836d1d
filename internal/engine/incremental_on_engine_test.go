package engine_test

import (
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/policy"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// TestIncrementalVerifierOnEngine runs an incremental session
// (internal/delta, which replaced core.IncrementalVerifier) on an Engine:
// the second run must be all-reuse with no additional engine solves, and a
// policy change must re-run exactly the dirty check on the shared pool.
func TestIncrementalVerifierOnEngine(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	suite, _ := netgen.Lookup("fig1-no-transit")
	v := delta.NewVerifier(eng, suite, netgen.SuiteParams{})
	n := netgen.Fig1(netgen.Fig1Options{})

	cold, err := v.Baseline(n)
	if err != nil || !cold.OK || cold.ReusedResults != 0 {
		t.Fatalf("cold run: %v / %+v", err, cold)
	}
	solvedAfterCold := eng.Stats().ChecksSolved

	warm, err := v.Update(netgen.Fig1(netgen.Fig1Options{}))
	if err != nil || !warm.OK || warm.ReusedResults != warm.TotalChecks {
		t.Fatalf("warm run: %v / %+v", err, warm)
	}
	if got := eng.Stats().ChecksSolved; got != solvedAfterCold {
		t.Fatalf("warm run solved %d extra checks on the engine", got-solvedAfterCold)
	}

	// Rebind one import policy: exactly one check is dirty, and the engine
	// solves exactly that one (its key is new to the engine cache too).
	edited := n.Clone()
	edited.SetImport(topology.Edge{From: "R1", To: "R3"}, &policy.RouteMap{
		Name: "r3-import-r1-v2",
		Clauses: []policy.Clause{
			{Seq: 10, Actions: []policy.Action{policy.SetLocalPref{Value: 80}}, Permit: true},
		},
	})
	dirty, err := v.Update(edited)
	if err != nil || !dirty.OK {
		t.Fatalf("benign change must still verify: %v / %+v", err, dirty)
	}
	if dirty.ReusedResults != dirty.TotalChecks-1 {
		t.Fatalf("reused %d of %d, want exactly one dirty check", dirty.ReusedResults, dirty.TotalChecks)
	}
	if got := eng.Stats().ChecksSolved; got != solvedAfterCold+1 {
		t.Fatalf("engine solved %d checks for one dirty check", got-solvedAfterCold)
	}
}

// twoRouterNetwork builds a minimal network, with or without the B -> A
// edge, to drive the session's stale-entry re-index.
func twoRouterNetwork(withReverse bool) *topology.Network {
	n := topology.New()
	n.AddRouter("A", 100)
	n.AddRouter("B", 100)
	n.AddExternal("X", 200)
	n.AddEdge("X", "A")
	n.AddEdge("A", "B")
	if withReverse {
		n.AddEdge("B", "A")
	}
	return n
}

// TestIncrementalVerifierOnEngineReindexAfterEdgeRemoval: removing an edge
// must shrink the session's retained results to the surviving checks (stale
// entries for the removed edge are dropped by the from-scratch re-index),
// while the run still reuses everything that survived.
func TestIncrementalVerifierOnEngineReindexAfterEdgeRemoval(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	v := delta.NewVerifier(eng, netgen.Suite{Name: "two-router",
		Problems: func(n *topology.Network, _ netgen.SuiteParams, _ netgen.Scope) []netgen.Problem {
			return []netgen.Problem{{Name: "p", Safety: &core.SafetyProblem{
				Network:    n,
				Property:   core.Property{Loc: core.AtRouter("B"), Pred: spec.True()},
				Invariants: core.NewInvariants(spec.True()),
			}}}
		}}, netgen.SuiteParams{})

	full, err := v.Baseline(twoRouterNetwork(true))
	if err != nil || !full.OK {
		t.Fatalf("full network must verify: %v / %+v", err, full)
	}
	before := v.ResultCount()

	shrunk, err := v.Update(twoRouterNetwork(false))
	if err != nil || !shrunk.OK {
		t.Fatalf("shrunk network must verify: %v / %+v", err, shrunk)
	}
	if shrunk.TotalChecks >= full.TotalChecks {
		t.Fatalf("edge removal should drop checks: %d -> %d", full.TotalChecks, shrunk.TotalChecks)
	}
	if shrunk.ReusedResults != shrunk.TotalChecks {
		t.Fatalf("surviving checks should all be reused, got %d of %d", shrunk.ReusedResults, shrunk.TotalChecks)
	}
	if got := v.ResultCount(); got >= before || got != shrunk.TotalChecks {
		t.Fatalf("retained results %d -> %d, want exactly the %d surviving checks", before, got, shrunk.TotalChecks)
	}
}
