package delta

import (
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
)

// TestRestrictedRegeneratesAFailingEdge: the index holds passing results
// only, so an update served from it regenerates every edge that held a
// failure. The failure is reused — counted as reused, not dirty, and never
// solved again — and reads as it did: its description rendered from the
// regenerated check, its witness the retained structured one.
func TestRestrictedRegeneratesAFailingEdge(t *testing.T) {
	suite, _ := netgen.Lookup("fig1-no-transit")
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	v := NewVerifier(eng, suite, netgen.SuiteParams{})
	v.SetWorkload(engine.Workload{SubmitOptions: engine.SubmitOptions{Results: engine.ResultsFailures}})
	buggy := netgen.Fig1(netgen.Fig1Options{OmitTransitTag: true})
	base, err := v.Baseline(buggy)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Problems[0].Report.HardFailures()
	if len(want) == 0 {
		t.Fatal("the buggy Figure 1 verifies; the test needs a failure")
	}
	if v.Indexes() != 1 {
		t.Fatalf("%d indexes for one problem", v.Indexes())
	}
	failing := map[core.Location]bool{}
	for _, f := range want {
		failing[f.Loc] = true
	}
	for _, idx := range v.index {
		for i, e := range buggy.Index().Edges {
			served := true
			for _, res := range idx.results[idx.at[i]:idx.at[i+1]] {
				if res == nil {
					served = false
				} else if !res.OK {
					t.Errorf("the index holds a failure at %s", e)
				}
			}
			if served && failing[core.AtEdge(e)] {
				t.Errorf("the index would serve %s, which failed", e)
			}
		}
	}

	next, err := netgen.ApplyMutation(buggy, netgen.MutationSpec{Kind: netgen.MutTighten, At: "R3"})
	if err != nil {
		t.Fatal(err)
	}
	var solved []core.Location
	v.SetHooks(Hooks{Check: func(_ int, p engine.Progress) { solved = append(solved, p.Result.Loc) }})
	upd, err := v.Update(next)
	if err != nil {
		t.Fatal(err)
	}
	if v.Served() != 1 {
		t.Fatalf("served %d problems from the index, want 1", v.Served())
	}
	for _, loc := range solved {
		if failing[loc] {
			t.Errorf("the failure at %s was submitted again", loc)
		}
	}
	o := upd.Problems[0]
	if o.Dirty != len(solved) || o.Reused != o.Checks-o.Dirty || o.Reused < len(want) {
		t.Fatalf("%d checks, %d dirty, %d reused, %d submitted; want every failure reused", o.Checks, o.Dirty, o.Reused, len(solved))
	}
	got := o.Report.HardFailures()
	if len(got) != len(want) {
		t.Fatalf("%d failures after the update, %d before", len(got), len(want))
	}
	for i := range got {
		if got[i].Loc != want[i].Loc || got[i].Desc.String() == "" || got[i].Desc.String() != want[i].Desc.String() {
			t.Errorf("failure at %s reads %q, want %q at %s", got[i].Loc, got[i].Desc, want[i].Desc, want[i].Loc)
		}
		if got[i].Counterexample == nil || got[i].Counterexample.String() != want[i].Counterexample.String() {
			t.Errorf("failure at %s has witness %v, want %v", got[i].Loc, got[i].Counterexample, want[i].Counterexample)
		}
	}
}
