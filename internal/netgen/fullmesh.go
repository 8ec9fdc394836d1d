package netgen

import (
	"lightyear/internal/core"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// Bogons is a small bogon prefix list used by the synthetic eBGP filters
// ("each eBGP connection using only prefix and community filters", §6.2).
var Bogons = func() *routemodel.PrefixSet {
	s := &routemodel.PrefixSet{}
	s.AddRange(routemodel.MustPrefix("0.0.0.0/8"), 8, 32)
	s.AddRange(routemodel.MustPrefix("127.0.0.0/8"), 8, 32)
	s.AddRange(routemodel.MustPrefix("169.254.0.0/16"), 16, 32)
	s.AddRange(routemodel.MustPrefix("192.0.2.0/24"), 24, 32)
	s.AddRange(routemodel.MustPrefix("224.0.0.0/4"), 4, 32)
	return s
}()

// CommBad is the community tagging routes learned from the designated
// "bad" external neighbor X1 in the full-mesh scaling networks.
var CommBad = routemodel.MustCommunity("100:1")

// FullMesh builds the §6.2 synthetic scaling network of size n: routers
// R1..Rn in a full iBGP mesh, each with one eBGP external neighbor Xi —
// n·(n−1) + 2n directed edges, i.e. Θ(n²) as in the paper. The
// configuration implements a no-transit scheme like Figure 1's: R1 tags
// routes from X1 with 100:1, R2 filters 100:1 towards X2, and every eBGP
// import also applies a bogon prefix filter.
func FullMesh(n int) *topology.Network {
	if n < 2 {
		panic("netgen: full mesh needs at least 2 routers")
	}
	return mustParse(FullMeshDSL(n))
}

// FullMeshGhost is the provenance ghost for the scaling networks: true on
// routes imported from X1.
func FullMeshGhost(n *topology.Network) core.GhostDef {
	return core.GhostFromExternals("FromBad", n, func(id topology.NodeID) bool {
		return id == "X1"
	})
}

// FullMeshExitEdge is the property location of the scaling experiments.
func FullMeshExitEdge() topology.Edge { return topology.Edge{From: "R2", To: "X2"} }

// FullMeshProblem builds the no-transit safety problem for a full-mesh
// network: no route sent from R2 to X2 originates at X1, with the usual
// three-part invariant structure.
func FullMeshProblem(n *topology.Network) *core.SafetyProblem {
	fromBad := spec.Ghost("FromBad")
	keyInv := spec.Implies(fromBad, spec.HasCommunity(CommBad))
	exit := FullMeshExitEdge()

	inv := core.NewInvariants(keyInv)
	inv.SetEdge(exit, spec.Not(fromBad))

	return &core.SafetyProblem{
		Network: n,
		Property: core.Property{
			Loc:  core.AtEdge(exit),
			Pred: spec.Not(fromBad),
			Desc: "no-transit: routes from X1 never reach X2",
		},
		Invariants: inv,
		Ghosts:     []core.GhostDef{FullMeshGhost(n)},
	}
}

// FullMeshProperty returns the property parameters for the monolithic
// baseline on the same network.
func FullMeshProperty() (core.Location, spec.Pred) {
	return core.AtEdge(FullMeshExitEdge()), spec.Not(spec.Ghost("FromBad"))
}
