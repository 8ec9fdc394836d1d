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
// edge, to drive the session's stale-entry re-index. B -> A's import policy
// is its own, so that check's key is one no surviving check shares; its
// export check shares A -> B's key.
func twoRouterNetwork(withReverse bool) *topology.Network {
	n := topology.New()
	n.AddRouter("A", 100)
	n.AddRouter("B", 100)
	n.AddExternal("X", 200)
	n.AddEdge("X", "A")
	n.AddEdge("A", "B")
	if withReverse {
		e := n.AddEdge("B", "A")
		n.SetImport(e, &policy.RouteMap{Name: "a-import-b", Clauses: []policy.Clause{
			{Seq: 10, Actions: []policy.Action{policy.SetLocalPref{Value: 90}}, Permit: true},
		}})
	}
	return n
}

// twoRouterProblem is the one problem of the session's suite.
func twoRouterProblem(n *topology.Network) *core.SafetyProblem {
	return &core.SafetyProblem{
		Network:    n,
		Property:   core.Property{Loc: core.AtRouter("B"), Pred: spec.True()},
		Invariants: core.NewInvariants(spec.True()),
	}
}

// keyCounts counts the checks of the problem on n by key.
func keyCounts(n *topology.Network) map[string]int {
	keys := map[string]int{}
	for _, c := range twoRouterProblem(n).Checks(core.Options{}) {
		keys[c.Key()]++
	}
	return keys
}

// TestIncrementalVerifierOnEngineReindexAfterEdgeRemoval: removing an edge
// must shrink the session's retained results to the distinct keys of the
// surviving checks — one result per key, however many checks share it —
// and drop every key only the removed edge used (the from-scratch
// re-index), while the run still reuses everything that survived. Putting
// the edge back then re-runs exactly the checks whose keys were dropped.
func TestIncrementalVerifierOnEngineReindexAfterEdgeRemoval(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	v := delta.NewVerifier(eng, netgen.Suite{Name: "two-router",
		Problems: func(n *topology.Network, _ netgen.SuiteParams, _ netgen.Scope) []netgen.Problem {
			return []netgen.Problem{{Name: "p", Safety: twoRouterProblem(n)}}
		}}, netgen.SuiteParams{})

	fullKeys, shrunkKeys := keyCounts(twoRouterNetwork(true)), keyCounts(twoRouterNetwork(false))
	removedOnly := 0 // checks of the full network whose key no surviving check has
	for k, n := range fullKeys {
		if _, ok := shrunkKeys[k]; !ok {
			removedOnly += n
		}
	}
	if removedOnly == 0 || len(shrunkKeys) == len(fullKeys) {
		t.Fatalf("the removed edge should own a key: %d keys before, %d after", len(fullKeys), len(shrunkKeys))
	}

	full, err := v.Baseline(twoRouterNetwork(true))
	if err != nil || !full.OK {
		t.Fatalf("full network must verify: %v / %+v", err, full)
	}
	if got := v.ResultCount(); got != len(fullKeys) || got >= full.TotalChecks {
		t.Fatalf("retained %d results for %d checks, want one per distinct key (%d)", got, full.TotalChecks, len(fullKeys))
	}

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
	if got := v.ResultCount(); got != len(shrunkKeys) {
		t.Fatalf("retained results %d -> %d, want the %d distinct keys of the surviving checks", len(fullKeys), got, len(shrunkKeys))
	}

	// A key the removal dropped is not served again: restoring the edge
	// re-runs exactly its checks.
	restored, err := v.Update(twoRouterNetwork(true))
	if err != nil || !restored.OK {
		t.Fatalf("restored network must verify: %v / %+v", err, restored)
	}
	if restored.DirtyChecks != removedOnly || restored.ReusedResults != restored.TotalChecks-removedOnly {
		t.Fatalf("restoring the edge re-ran %d checks and reused %d of %d, want %d re-run (keys only the removed edge used)",
			restored.DirtyChecks, restored.ReusedResults, restored.TotalChecks, removedOnly)
	}
}
