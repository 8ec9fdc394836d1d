// Incremental re-verification: modularity means a configuration change only
// dirties the local checks that read the changed policy (§2). This example
// pins the Figure-1 network in an internal/delta session, edits one router's
// import policy, and re-verifies — showing how many checks were reused from
// the pinned state — then demonstrates catching a bug introduced by the edit
// and re-verifying after the fix.
package main

import (
	"fmt"

	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/policy"
	"lightyear/internal/topology"
)

func main() {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	suite, _ := netgen.Lookup("fig1-no-transit")
	v := delta.NewVerifier(eng, suite, netgen.SuiteParams{})

	show := func(label string, res *delta.Result, err error) {
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-14s OK=%v, %d checks, %d reused, %d re-solved\n",
			label+":", res.OK, res.TotalChecks, res.ReusedResults, res.DirtyChecks)
		for _, p := range res.Problems {
			if p.Report == nil {
				continue
			}
			for _, f := range p.Report.Failures() {
				fmt.Printf("  localized failure: [%s] at %s\n", f.Kind, f.Loc)
				if f.Counterexample != nil {
					fmt.Printf("  counterexample input:  %s\n", f.Counterexample.Input)
					if f.Counterexample.Output != nil {
						fmt.Printf("  counterexample output: %s\n", f.Counterexample.Output)
					}
				}
			}
		}
	}

	n := netgen.Fig1(netgen.Fig1Options{})
	res, err := v.Baseline(n)
	show("initial run", res, err)

	res, err = v.Update(n)
	show("unchanged run", res, err)

	// Benign edit: R3 lowers preference of routes learned from R1. Each
	// state is a clone — the session diffs it against the pinned one.
	benign := n.Clone()
	benign.SetImport(topology.Edge{From: "R1", To: "R3"}, &policy.RouteMap{
		Name: "r3-import-r1-v2",
		Clauses: []policy.Clause{
			{Seq: 10, Actions: []policy.Action{policy.SetLocalPref{Value: 90}}, Permit: true},
		},
	})
	res, err = v.Update(benign)
	show("benign edit", res, err) // only the edited filter re-ran

	// Bad edit: R2 starts clearing communities on routes from R1, which
	// strips the 100:1 transit tag.
	bad := benign.Clone()
	bad.SetImport(topology.Edge{From: "R1", To: "R2"}, &policy.RouteMap{
		Name: "r2-import-r1-v2",
		Clauses: []policy.Clause{
			{Seq: 10, Actions: []policy.Action{policy.ClearCommunities{}}, Permit: true},
		},
	})
	res, err = v.Update(bad)
	show("bad edit", res, err)

	// Revert the bad edit.
	res, err = v.Update(benign)
	show("after fix", res, err)
}
