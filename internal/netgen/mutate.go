package netgen

import (
	"lightyear/internal/policy"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// Mutation helpers for generated suites: small, realistic configuration
// changes applied in place, used by migration steps, corpus fuzz trails and
// the delta tests to model the operator loop the paper's incremental
// story targets (§2: "when a node is updated, only the local checks
// pertaining to that node must be re-checked").

// TestNet2 is the 198.51.100.0/24 documentation block (TEST-NET-2). It is
// disjoint from every prefix set the generated properties mention, so
// filtering it is semantically benign: all suite properties keep holding.
var TestNet2 = func() *routemodel.PrefixSet {
	s := &routemodel.PrefixSet{}
	s.AddRange(routemodel.MustPrefix("198.51.100.0/24"), 24, 32)
	return s
}()

// TightenPeerImports prepends a deny-TEST-NET-2 clause to every import
// policy the router applies to routes from its external peers — the
// canonical one-router policy change: checks at those sessions become
// dirty, every property still verifies. It returns the number of sessions
// whose policy changed.
func TightenPeerImports(n *topology.Network, at topology.NodeID) int {
	changed := 0
	for _, e := range n.Edges() {
		if e.To != at || !n.IsExternal(e.From) {
			continue
		}
		n.SetImport(e, PrependDeny(n.Import(e), spec.PrefixIn(TestNet2)))
		changed++
	}
	return changed
}

// PrependDeny returns a copy of m with a leading deny clause matching pred.
// The input map is not modified (generated networks may share map values).
// A nil input is treated as the implicit permit-all.
func PrependDeny(m *policy.RouteMap, pred spec.Pred) *policy.RouteMap {
	out := &policy.RouteMap{Name: "tightened", DefaultPermit: true}
	if m != nil {
		out.Name = m.Name + "+tight"
		out.DefaultPermit = m.DefaultPermit
	}
	seq := 1
	if m != nil && len(m.Clauses) > 0 && m.Clauses[0].Seq <= 1 {
		seq = m.Clauses[0].Seq - 1
	}
	out.Clauses = append(out.Clauses, policy.Clause{Seq: seq, Matches: []spec.Pred{pred}, Permit: false})
	if m != nil {
		out.Clauses = append(out.Clauses, m.Clauses...)
	}
	return out
}
