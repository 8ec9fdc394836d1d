// Package netgen builds the networks used by the paper's evaluation: the
// running example of Figure 1, the §6.2 full-mesh synthetic networks used
// for the scaling comparison against Minesweeper, and a synthetic wide-area
// network with the structure described in §6.1 (regions, Internet edge
// routers, reused IP prefixes, community-based tagging). Each network is
// defined once, as the configuration text Fig1DSL, FullMeshDSL and WANDSL
// emit; Fig1, FullMesh and WAN parse that text. It also provides bug
// injectors that plant the classes of configuration errors the paper
// reports finding, so error localization can be demonstrated and tested.
package netgen

import (
	"lightyear/internal/core"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// Community and prefix constants for the Figure-1 example.
var (
	// CommTransit is the community 100:1 marking routes learned from ISP1.
	CommTransit = routemodel.MustCommunity("100:1")
	// CustPrefixes is the customer's address space: 10.42.0.0/16 and its
	// subnets up to /24.
	CustPrefixes = func() *routemodel.PrefixSet {
		s := &routemodel.PrefixSet{}
		s.AddRange(routemodel.MustPrefix("10.42.0.0/16"), 16, 24)
		return s
	}()
)

// HasCustPrefix is the Table-3 predicate: the route announces a customer
// prefix.
func HasCustPrefix() spec.Pred { return spec.PrefixIn(CustPrefixes) }

// Fig1Options lets tests inject the configuration bugs discussed in §2.
type Fig1Options struct {
	// OmitTransitTag drops the "add community 100:1" action from R1's
	// import from ISP1 (the bug walked through in §2.1's Output paragraph).
	OmitTransitTag bool
	// StripAtR2 makes R2's import from R1 clear communities, violating the
	// "no other policy strips 100:1" key invariant.
	StripAtR2 bool
	// SkipExportFilter removes the 100:1 deny clause on R2's export to
	// ISP2, so the no-transit property fails at its enforcement point.
	SkipExportFilter bool
	// ForgetStripAtR3 makes R3's import from Customer keep incoming
	// communities, breaking the liveness no-interference condition (§2.2).
	ForgetStripAtR3 bool
}

// Fig1 builds the running-example network of Figure 1: routers R1, R2, R3
// in one AS; external neighbors ISP1 (at R1), ISP2 (at R2), and Customer
// (at R3); internal full mesh. Policies implement the no-transit scheme of
// §2.1 (tag at R1, filter at R2, preserve elsewhere) and accept customer
// prefixes at R3 with community stripping (§2.2).
func Fig1(o Fig1Options) *topology.Network { return mustParse(Fig1DSL(o)) }

// FromISP1Ghost is the ghost attribute of Table 2: true exactly on routes
// imported from ISP1.
func FromISP1Ghost(n *topology.Network) core.GhostDef {
	return core.GhostFromExternals("FromISP1", n, func(id topology.NodeID) bool {
		return id == "ISP1"
	})
}

// Fig1NoTransitProblem builds the Table-2 safety problem: no route sent
// from R2 to ISP2 originates at ISP1. The three user invariants follow the
// table exactly:
//
//	ISP1 → R1:       True (implicit: external source edge)
//	R2 → ISP2:       ¬FromISP1(r)
//	everything else: FromISP1(r) ⇒ 100:1 ∈ Comm(r)
func Fig1NoTransitProblem(n *topology.Network) *core.SafetyProblem {
	fromISP1 := spec.Ghost("FromISP1")
	keyInv := spec.Implies(fromISP1, spec.HasCommunity(CommTransit))
	exitEdge := topology.Edge{From: "R2", To: "ISP2"}

	inv := core.NewInvariants(keyInv)
	inv.SetEdge(exitEdge, spec.Not(fromISP1))

	return &core.SafetyProblem{
		Network: n,
		Property: core.Property{
			Loc:  core.AtEdge(exitEdge),
			Pred: spec.Not(fromISP1),
			Desc: "no routes sent to ISP2 come from ISP1 (no-transit)",
		},
		Invariants: inv,
		Ghosts:     []core.GhostDef{FromISP1Ghost(n)},
	}
}

// Fig1LivenessProblem builds the Table-3 liveness problem: a route with a
// customer prefix received from Customer is eventually sent from R2 to
// ISP2, along the path Customer → R3 → R2 → ISP2. The path constraints
// include ¬100:1 (or the routes would be dropped at R2's export), and the
// no-interference obligations at R3 and R2 are proven with the invariant
// "customer-prefix routes never carry 100:1".
func Fig1LivenessProblem(n *topology.Network) *core.LivenessProblem {
	cust := HasCustPrefix()
	good := spec.And(cust, spec.Not(spec.HasCommunity(CommTransit)))
	exitEdge := topology.Edge{From: "R2", To: "ISP2"}

	interference := core.NewInvariants(spec.Implies(cust, spec.Not(spec.HasCommunity(CommTransit))))

	return &core.LivenessProblem{
		Network: n,
		Property: core.Property{
			Loc:  core.AtEdge(exitEdge),
			Pred: cust,
			Desc: "customer prefixes are advertised to ISP2",
		},
		Steps: []core.PathStep{
			{Loc: core.AtEdge(topology.Edge{From: "Customer", To: "R3"}), Constraint: cust},
			{Loc: core.AtRouter("R3"), Constraint: good, PrefixPred: cust},
			{Loc: core.AtEdge(topology.Edge{From: "R3", To: "R2"}), Constraint: good},
			{Loc: core.AtRouter("R2"), Constraint: good, PrefixPred: cust},
			{Loc: core.AtEdge(exitEdge), Constraint: cust},
		},
		Ghosts:                 []core.GhostDef{FromISP1Ghost(n)},
		InterferenceInvariants: interference,
	}
}
