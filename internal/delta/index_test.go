package delta

import (
	"testing"

	"lightyear/internal/engine"
	"lightyear/internal/netgen"
)

// TestRestrictedRegeneratesAnUndescribedFailure: a retained failure whose
// description the index does not hold is not served from the index — its
// edge is generated again, so the report still says what failed.
func TestRestrictedRegeneratesAnUndescribedFailure(t *testing.T) {
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
	v.index[0].fails = nil

	next, err := netgen.ApplyMutation(buggy, netgen.MutationSpec{Kind: netgen.MutTighten, At: "R3"})
	if err != nil {
		t.Fatal(err)
	}
	upd, err := v.Update(next)
	if err != nil {
		t.Fatal(err)
	}
	if v.Served() != 1 {
		t.Fatalf("served %d problems from the index, want 1", v.Served())
	}
	got := upd.Problems[0].Report.HardFailures()
	if len(got) != len(want) {
		t.Fatalf("%d failures after the update, %d before", len(got), len(want))
	}
	for i := range got {
		if got[i].Desc.String() == "" || got[i].Desc.String() != want[i].Desc.String() {
			t.Errorf("failure at %s reads %q, want %q", got[i].Loc, got[i].Desc, want[i].Desc)
		}
	}
}
