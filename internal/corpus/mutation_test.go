package corpus

import (
	"strings"
	"testing"

	"lightyear/internal/netgen"
	"lightyear/internal/topology"
)

// Satellite coverage: netgen.MutationSpec validation against *generated*
// configs. Every corpus family must reject inserts at occupied sequence
// numbers and removals of missing ones, and a successful mutation must be
// clone-isolated from the input network.

// peerSession returns one external -> internal session edge of n.
func peerSession(t *testing.T, n *topology.Network) topology.Edge {
	t.Helper()
	for _, e := range n.Edges() {
		if n.IsExternal(e.From) && !n.IsExternal(e.To) {
			return e
		}
	}
	t.Fatal("generated network has no peer session")
	return topology.Edge{}
}

func TestMutationSpecValidationPerFamily(t *testing.T) {
	for _, m := range oneOfEach() {
		n, _, err := m.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Ref(), err)
		}
		e := peerSession(t, n)

		// Inserting at a sequence the hygiene template already uses must
		// fail with the occupied-sequence error.
		_, err = netgen.ApplyMutation(n, netgen.MutationSpec{
			Kind:  netgen.MutInsertImportDeny,
			From:  e.From,
			To:    e.To,
			Seq:   10,
			Match: "test-net-2",
		})
		if err == nil || !strings.Contains(err.Error(), "occupied") {
			t.Errorf("%s: occupied insert: got %v, want occupied-sequence error", m.Ref(), err)
		}

		// Removing a sequence that does not exist must fail too.
		_, err = netgen.ApplyMutation(n, netgen.MutationSpec{
			Kind: netgen.MutRemoveImportClause,
			From: e.From,
			To:   e.To,
			Seq:  55,
		})
		if err == nil || !strings.Contains(err.Error(), "no clause") {
			t.Errorf("%s: missing remove: got %v, want no-clause error", m.Ref(), err)
		}
	}
}

func TestMutationCloneIsolationPerFamily(t *testing.T) {
	for _, m := range oneOfEach() {
		n, _, err := m.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Ref(), err)
		}
		e := peerSession(t, n)
		before := n.Fingerprint()

		mut, err := netgen.ApplyMutation(n, netgen.MutationSpec{
			Kind: netgen.MutRemoveImportClause,
			From: e.From,
			To:   e.To,
			Seq:  20,
		})
		if err != nil {
			t.Fatalf("%s: remove seq 20: %v", m.Ref(), err)
		}
		// Fingerprint is memoised, so n's own would not see an in-place
		// edit of a route map or node it shares; a clone renders n afresh.
		if n.Clone().Fingerprint() != before {
			t.Errorf("%s: ApplyMutation modified its input network", m.Ref())
		}
		if mut.Fingerprint() == before {
			t.Errorf("%s: mutation had no semantic effect", m.Ref())
		}
	}
}
