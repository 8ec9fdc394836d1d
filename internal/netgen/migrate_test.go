package netgen_test

import (
	"strings"
	"testing"

	"lightyear/internal/netgen"
	"lightyear/internal/topology"
)

var r2isp2 = topology.Edge{From: "R2", To: "ISP2"}

func applyMut(t *testing.T, n *topology.Network, m netgen.MutationSpec) *topology.Network {
	t.Helper()
	out, err := netgen.ApplyMutation(n, m)
	if err != nil {
		t.Fatalf("ApplyMutation(%s): %v", m, err)
	}
	return out
}

// TestApplyMutationInsertRemove covers the clause-edit kinds: inserts land
// at their sequence position, occupied sequence numbers and missing clauses
// are errors, and the input network is never modified.
func TestApplyMutationInsertRemove(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	before := len(n.Export(r2isp2).Clauses) // fig1: deny-transit at 10, permit at 20
	if before != 2 {
		t.Fatalf("fig1 export map R2->ISP2 has %d clauses, want 2", before)
	}
	fpBefore := n.Fingerprint()

	shield := netgen.MutationSpec{Kind: netgen.MutInsertExportDeny, From: "R2", To: "ISP2",
		Seq: 5, Match: "community:" + netgen.CommTransit.String()}
	shielded := applyMut(t, n, shield)
	got := shielded.Export(r2isp2).Clauses
	if len(got) != 3 || got[0].Seq != 5 || got[0].Permit {
		t.Fatalf("shield should prepend a deny at seq 5: %+v", got)
	}
	// Clone isolation: the input state is untouched. A clone renders n
	// afresh: n's memoised Fingerprint would not see an in-place edit.
	if len(n.Export(r2isp2).Clauses) != before || n.Clone().Fingerprint() != fpBefore {
		t.Fatal("ApplyMutation modified its input network")
	}

	// Occupied sequence number on insert is an error, as on real devices.
	occupied := shield
	occupied.Seq = 10
	if _, err := netgen.ApplyMutation(n, occupied); err == nil ||
		!strings.Contains(err.Error(), "already occupied") {
		t.Fatalf("insert at occupied seq should fail, got %v", err)
	}

	retired := applyMut(t, n, netgen.MutationSpec{
		Kind: netgen.MutRemoveExportClause, From: "R2", To: "ISP2", Seq: 10})
	if len(retired.Export(r2isp2).Clauses) != 1 {
		t.Fatalf("remove seq 10 left %+v", retired.Export(r2isp2).Clauses)
	}
	if _, err := netgen.ApplyMutation(n, netgen.MutationSpec{
		Kind: netgen.MutRemoveExportClause, From: "R2", To: "ISP2", Seq: 7}); err == nil {
		t.Fatal("removing a missing sequence number should fail")
	}
	if _, err := netgen.ApplyMutation(n, netgen.MutationSpec{
		Kind: netgen.MutInsertImportDeny, From: "R2", To: "nope", Seq: 5, Match: "bogons"}); err == nil {
		t.Fatal("unknown session edge should fail")
	}
}

func TestApplyMutationTighten(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	tightened := applyMut(t, n, netgen.MutationSpec{Kind: netgen.MutTighten, At: "R2"})
	if tightened.Fingerprint() == n.Fingerprint() {
		t.Fatal("tighten-imports should change the network state")
	}
	if _, err := netgen.ApplyMutation(n, netgen.MutationSpec{
		Kind: netgen.MutTighten, At: "no-such-router"}); err == nil {
		t.Fatal("tightening an unknown router should fail")
	}
	if _, err := netgen.ApplyMutation(n, netgen.MutationSpec{
		Kind: netgen.MutTighten, At: "ISP1"}); err == nil {
		t.Fatal("tightening an external should fail")
	}
}

func TestMutationValidate(t *testing.T) {
	bad := []netgen.MutationSpec{
		{},
		{Kind: "frobnicate"},
		{Kind: netgen.MutTighten},
		{Kind: netgen.MutInsertExportDeny, From: "R2", To: "ISP2", Seq: 0, Match: "bogons"},
		{Kind: netgen.MutInsertExportDeny, From: "R2", To: "ISP2", Seq: 5, Match: "no-such-pred"},
		{Kind: netgen.MutRemoveExportClause, From: "R2", Seq: 10},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", m)
		}
	}
	ok := netgen.MutationSpec{Kind: netgen.MutInsertImportDeny, From: "ISP2", To: "R2",
		Seq: 5, Match: "community:100:1"}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate(%s): %v", ok, err)
	}
}

// TestIndependentMutations: disjoint touched-node sets commute; shared
// routers do not. This predicate is the soundness condition of the
// migration search's canonical-order cut.
func TestIndependentMutations(t *testing.T) {
	t1 := netgen.MutationSpec{Kind: netgen.MutTighten, At: "R1"}
	t3 := netgen.MutationSpec{Kind: netgen.MutTighten, At: "R3"}
	shield := netgen.Fig1FilterSwap()[0].Mutation // edits R2 -> ISP2
	t2 := netgen.MutationSpec{Kind: netgen.MutTighten, At: "R2"}
	if !netgen.IndependentMutations(t1, t3) {
		t.Error("tighten R1 and tighten R3 touch disjoint routers")
	}
	if !netgen.IndependentMutations(t1, shield) {
		t.Error("tighten R1 and an R2->ISP2 clause edit are independent")
	}
	if netgen.IndependentMutations(t2, shield) {
		t.Error("tighten R2 and an R2->ISP2 clause edit share R2")
	}
	if netgen.IndependentMutations(shield, netgen.Fig1FilterSwap()[1].Mutation) {
		t.Error("two edits of the same session edge are dependent")
	}
}

// TestFilterSwapStates pins the semantic shape the migration search's
// memoization exploits: the full shield-retire-reinstate chain lands on a
// state fingerprint-identical to the post-shield state (the reinstated
// clause equals the retired one), while the intermediate states differ.
func TestFilterSwapStates(t *testing.T) {
	steps := netgen.Fig1FilterSwap()
	n := netgen.Fig1(netgen.Fig1Options{})
	a := applyMut(t, n, steps[0].Mutation) // shield
	b := applyMut(t, a, steps[1].Mutation) // retire
	c := applyMut(t, b, steps[2].Mutation) // reinstate
	if b.Fingerprint() == a.Fingerprint() {
		t.Fatal("retiring the seq-10 clause must change the state")
	}
	if c.Fingerprint() != a.Fingerprint() {
		t.Fatal("reinstating the identical clause must restore the post-shield state")
	}
	// Reinstate before retire collides with the occupied sequence number.
	if _, err := netgen.ApplyMutation(a, steps[2].Mutation); err == nil {
		t.Fatal("reinstate before retire should fail on the occupied seq 10")
	}
}
