package topology

import (
	"reflect"
	"testing"

	"lightyear/internal/policy"
	"lightyear/internal/routemodel"
)

func diffNet() *Network {
	n := New()
	n.AddRouter("A", 100)
	n.AddRouter("B", 100)
	n.AddExternal("X", 200)
	n.AddPeering("A", "B")
	n.AddPeering("X", "A")
	n.SetImport(Edge{From: "X", To: "A"}, policy.PermitAll("x-import"))
	return n
}

func TestFingerprintDeterministicAndSensitive(t *testing.T) {
	a, b := diffNet(), diffNet()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical networks must have equal fingerprints")
	}
	if len(a.Fingerprint()) != 64 {
		t.Fatalf("fingerprint should be hex SHA-256, got %q", a.Fingerprint())
	}

	// Policy change moves the fingerprint.
	b.SetImport(Edge{From: "X", To: "A"}, policy.DenyAll("x-import-v2"))
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("policy change must change the fingerprint")
	}

	// Structural change moves the fingerprint.
	c := diffNet()
	c.AddRouter("C", 100)
	c.AddPeering("B", "C")
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("topology change must change the fingerprint")
	}

	// Origination change moves the fingerprint.
	d := diffNet()
	d.AddOriginate(Edge{From: "A", To: "B"}, routemodel.NewRoute(routemodel.MustPrefix("10.0.0.0/8")))
	if a.Fingerprint() == d.Fingerprint() {
		t.Fatal("origination change must change the fingerprint")
	}
}

func TestDiffNetworksEmpty(t *testing.T) {
	d := DiffNetworks(diffNet(), diffNet())
	if !d.Empty() {
		t.Fatalf("identical networks should diff empty, got %s", d)
	}
	if len(d.TouchedNodes()) != 0 {
		t.Fatalf("empty diff touches nodes: %v", d.TouchedNodes())
	}
}

func TestDiffNetworksPolicyChange(t *testing.T) {
	old, new := diffNet(), diffNet()
	new.SetImport(Edge{From: "X", To: "A"}, policy.DenyAll("x-import-v2"))
	d := DiffNetworks(old, new)
	if d.Empty() {
		t.Fatal("policy change should produce a non-empty diff")
	}
	if len(d.ChangedEdges) != 1 || d.ChangedEdges[0] != (Edge{From: "X", To: "A"}) {
		t.Fatalf("want exactly edge X -> A changed, got %s", d)
	}
	if len(d.AddedEdges)+len(d.RemovedEdges)+len(d.AddedNodes)+len(d.RemovedNodes)+len(d.ChangedNodes) != 0 {
		t.Fatalf("only one edge should change, got %s", d)
	}
	touched := d.TouchedNodes()
	if len(touched) != 2 || touched[0] != "A" || touched[1] != "X" {
		t.Fatalf("touched nodes = %v, want [A X]", touched)
	}
	if !d.Touches(Edge{From: "X", To: "A"}) {
		t.Fatal("diff must touch the changed edge")
	}
	if d.Touches(Edge{From: "A", To: "X"}) {
		t.Fatal("a policy edit on X -> A must not dirty the reverse edge")
	}
	if d.Touches(Edge{From: "B", To: "B"}) {
		t.Fatal("diff must not touch unrelated locations")
	}

	// A changed *node* does dirty its adjacent edges.
	renamed := diffNet()
	renamed.Node("A").Role = "core"
	nd := DiffNetworks(old, renamed)
	if !nd.Touches(Edge{From: "A", To: "X"}) {
		t.Fatal("a node attribute change must touch adjacent edges")
	}
}

func TestDiffNetworksStructuralChange(t *testing.T) {
	old, new := diffNet(), diffNet()
	new.AddRouter("C", 100)
	new.AddPeering("B", "C")
	d := DiffNetworks(old, new)
	if len(d.AddedNodes) != 1 || d.AddedNodes[0] != "C" {
		t.Fatalf("want node C added, got %s", d)
	}
	if len(d.AddedEdges) != 2 {
		t.Fatalf("want both directions of B<->C added, got %s", d)
	}
	rev := DiffNetworks(new, old)
	if len(rev.RemovedNodes) != 1 || len(rev.RemovedEdges) != 2 {
		t.Fatalf("reverse diff should remove them, got %s", rev)
	}
}

// TestFingerprintRendersOnceEitherWay: the fingerprint is the same whether
// the PolicyIndex was built before it (rendered again) or with it (rendered
// once for both), and the index built on the way equals one built alone.
func TestFingerprintRendersOnceEitherWay(t *testing.T) {
	build := func() *Network {
		n := diffNet()
		n.AddOriginate(Edge{From: "A", To: "B"}, routemodel.NewRoute(routemodel.MustPrefix("10.0.0.0/8")))
		n.SetExport(Edge{From: "A", To: "B"}, policy.DenyAll("a-export"))
		return n
	}
	indexFirst, fpFirst := build(), build()
	idx := indexFirst.Index()
	if a, b := indexFirst.Fingerprint(), fpFirst.Fingerprint(); a != b {
		t.Fatalf("fingerprint after Index %s, without %s", a, b)
	}
	if !reflect.DeepEqual(fpFirst.Index(), idx) {
		t.Fatal("the index built with the fingerprint differs from one built alone")
	}
}
