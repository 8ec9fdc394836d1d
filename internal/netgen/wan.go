package netgen

import (
	"fmt"

	"lightyear/internal/core"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// WANParams sizes the synthetic wide-area network modeled on §6.1: a
// backbone of region routers partitioned into regions (each attached to
// data-center routers announcing regional — partly reused — address space)
// plus Internet edge routers peering with ISPs, other clouds, and
// customers. All WAN routers form a full iBGP mesh, which yields tens of
// thousands of directed peering sessions at the paper's scale.
type WANParams struct {
	Regions          int // number of regions (paper: dozens)
	RoutersPerRegion int // WAN routers per region
	EdgeRouters      int // Internet edge routers
	DCsPerRegion     int // data-center neighbors per region
	PeersPerEdge     int // Internet peers per edge router
}

// DefaultWANParams is a small-but-structured instance for tests.
func DefaultWANParams() WANParams {
	return WANParams{Regions: 3, RoutersPerRegion: 2, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 2}
}

// WANBugs injects the configuration error classes reported in §6.1.
type WANBugs struct {
	// MissingBogonFilter removes the bogon clause from one edge router's
	// peer import ("inconsistencies between the filters of edge routers
	// that are intended to have similar behavior").
	MissingBogonFilter bool
	// WrongRegionCommunity makes one region's DC import tag reused routes
	// with another region's community ("a router used a community that was
	// not present in the metadata file").
	WrongRegionCommunity bool
	// MissingLocalPref drops the local-pref normalization on one peering
	// session ("a handful had ad-hoc policies").
	MissingLocalPref bool
}

// WAN address plan and shared constants.
var (
	// ReusedIPs is the private space reused across regions (§6.1).
	ReusedIPs = func() *routemodel.PrefixSet {
		s := &routemodel.PrefixSet{}
		s.AddRange(routemodel.MustPrefix("10.128.0.0/9"), 9, 28)
		return s
	}()
	// ClassE bogons kept separate from Bogons to give the harness distinct
	// peering properties.
	ClassE = func() *routemodel.PrefixSet {
		s := &routemodel.PrefixSet{}
		s.AddRange(routemodel.MustPrefix("240.0.0.0/4"), 4, 32)
		return s
	}()
	// DefaultRoute matches 0.0.0.0/0 exactly.
	DefaultRoute = routemodel.NewPrefixSet(routemodel.MustPrefix("0.0.0.0/0"))

	// PeerLocalPref and PeerMED are the normalized attribute values set on
	// all peer-learned routes.
	PeerLocalPref uint32 = 80
	PeerMED       uint32 = 0

	// PrivateASN is the representative reserved ASN filtered from peer
	// paths; WANLocalAS is the WAN's own AS (eBGP loop filtering).
	PrivateASN uint32 = 64512
	WANLocalAS uint32 = 8075
)

// RegionComm returns the regional community for region index i (0-based):
// 200:(100+i), mirroring the region→community metadata file of §6.1.
func RegionComm(i int) routemodel.Community {
	return routemodel.MkCommunity(200, uint16(100+i))
}

// RegionalComms lists every region community for a WAN of the given size.
func RegionalComms(regions int) []routemodel.Community {
	out := make([]routemodel.Community, regions)
	for i := range out {
		out[i] = RegionComm(i)
	}
	return out
}

// Node naming helpers.
func RegionRouter(region, i int) topology.NodeID {
	return topology.NodeID(fmt.Sprintf("wan-r%d-%d", region, i))
}
func EdgeRouter(i int) topology.NodeID {
	return topology.NodeID(fmt.Sprintf("edge-%d", i))
}
func DCRouter(region, i int) topology.NodeID {
	return topology.NodeID(fmt.Sprintf("dc-r%d-%d", region, i))
}
func PeerNode(edge, i int) topology.NodeID {
	return topology.NodeID(fmt.Sprintf("peer-e%d-%d", edge, i))
}

func regionName(i int) string { return fmt.Sprintf("region-%d", i) }

// WAN builds the synthetic wide-area network.
func WAN(p WANParams, bugs WANBugs) *topology.Network { return mustParse(WANDSL(p, bugs)) }

func regionIndex(name string) int {
	var i int
	fmt.Sscanf(name, "region-%d", &i)
	return i
}

// FromPeerGhost marks routes imported from any Internet peer.
func FromPeerGhost(n *topology.Network) core.GhostDef {
	return core.GhostFromExternals("FromPeer", n, func(id topology.NodeID) bool {
		node := n.Node(id)
		return node != nil && node.Role == "peer"
	})
}

// FromRegionGhost marks routes imported from region r's data centers.
func FromRegionGhost(n *topology.Network, r int) core.GhostDef {
	name := fmt.Sprintf("FromRegion%d", r)
	return core.GhostFromExternals(name, n, func(id topology.NodeID) bool {
		node := n.Node(id)
		if node == nil || node.Role != "dc" {
			return false
		}
		var rr, dd int
		if _, err := fmt.Sscanf(string(id), "dc-r%d-%d", &rr, &dd); err != nil {
			return false
		}
		return rr == r
	})
}

// PeeringProperty is one of the §6.1 "bad route" classes Q(r): the paper
// verified eleven properties of the form FromPeer(r) ⇒ Q(r) at every
// router.
type PeeringProperty struct {
	Name string
	Q    spec.Pred
}

// PeeringProperties returns the peering property suite for a WAN of the
// given size (eleven properties, as in §6.1).
func PeeringProperties(regions int) []PeeringProperty {
	return []PeeringProperty{
		{"no-bogons", spec.Not(spec.PrefixIn(Bogons))},
		{"no-class-e", spec.Not(spec.PrefixIn(ClassE))},
		{"no-default-route", spec.Not(spec.PrefixIn(DefaultRoute))},
		{"no-reused-space", spec.Not(spec.PrefixIn(ReusedIPs))},
		{"max-prefix-length", spec.PrefixLenAtMost(24)},
		{"max-as-path-length", spec.PathLenAtMost(31)},
		{"no-private-asn", spec.Not(spec.PathContains(PrivateASN))},
		{"no-self-asn", spec.Not(spec.PathContains(WANLocalAS))},
		{"no-regional-communities", spec.NoCommunityAmong(RegionalComms(regions))},
		{"local-pref-normalized", spec.LocalPrefEquals(PeerLocalPref)},
		{"med-normalized", spec.MEDEquals(PeerMED)},
	}
}

// PeeringProblem builds the Table-4a style safety problem for one peering
// property at one router: (R, FromPeer ⇒ Q). The invariant structure
// follows Table 4a: the same implication holds at every internal router and
// edge, and external edges are unconstrained.
func PeeringProblem(n *topology.Network, at topology.NodeID, prop PeeringProperty) *core.SafetyProblem {
	pred := spec.Implies(spec.Ghost("FromPeer"), prop.Q)
	inv := core.NewInvariants(pred)
	return &core.SafetyProblem{
		Network: n,
		Property: core.Property{
			Loc:  core.AtRouter(at),
			Pred: pred,
			Desc: fmt.Sprintf("%s at %s", prop.Name, at),
		},
		Invariants: inv,
		Ghosts:     []core.GhostDef{FromPeerGhost(n)},
	}
}

// IPReuseSafetyProblem builds the Table-4b problem for region r: routers
// outside region r never accept reused-prefix routes from r's data centers.
// The invariants follow the table: inside the region, reused FromRegion
// routes carry exactly the region community; outside, FromRegion implies
// not reused; edges inherit the sending router's invariant.
func IPReuseSafetyProblem(n *topology.Network, p WANParams, r int, outside topology.NodeID) *core.SafetyProblem {
	from := spec.Ghost(fmt.Sprintf("FromRegion%d", r))
	reused := spec.PrefixIn(ReusedIPs)
	regionals := RegionalComms(p.Regions)
	inRegionInv := spec.Implies(spec.And(from, reused), spec.OnlyCommunityAmong(regionals, RegionComm(r)))
	outRegionInv := spec.Implies(from, spec.Not(reused))

	inv := core.NewInvariants(outRegionInv)
	region := regionName(r)
	for _, id := range n.RoutersByRegion(region) {
		inv.SetRouter(id, inRegionInv)
	}
	// Edges inherit the sender's invariant (Table 4b, row "R1 → R2").
	for _, e := range n.Edges() {
		if n.IsExternal(e.From) {
			continue // automatically True
		}
		if n.Node(e.From).Region == region {
			inv.SetEdge(e, inRegionInv)
		}
	}
	return &core.SafetyProblem{
		Network: n,
		Property: core.Property{
			Loc:  core.AtRouter(outside),
			Pred: outRegionInv,
			Desc: fmt.Sprintf("reused IPs of region %d stay out of %s", r, outside),
		},
		Invariants: inv,
		Ghosts:     []core.GhostDef{FromRegionGhost(n, r)},
	}
}

// IPReuseLivenessProblem builds the Table-4c problem for region r: a reused
// route announced by a data center to R1 eventually reaches R2, both in
// region r, along D → R1 → R2.
func IPReuseLivenessProblem(n *topology.Network, p WANParams, r int) *core.LivenessProblem {
	from := spec.Ghost(fmt.Sprintf("FromRegion%d", r))
	reused := spec.PrefixIn(ReusedIPs)
	regionals := RegionalComms(p.Regions)
	tagged := spec.OnlyCommunityAmong(regionals, RegionComm(r))
	good := spec.And(from, reused, tagged)

	d := DCRouter(r, 0)
	r1 := RegionRouter(r, 0)
	r2 := RegionRouter(r, 1)

	// No-interference invariants: at region-r routers, any reused-prefix
	// route is a properly tagged region-r route; elsewhere reused routes
	// carry their own region's tag (edge routers accept none).
	interference := core.NewInvariants(spec.Implies(reused, spec.HasAnyCommunity(regionals...)))
	region := regionName(r)
	for _, id := range n.RoutersByRegion(region) {
		interference.SetRouter(id, spec.Implies(reused, good))
	}
	for _, id := range n.RoutersByRole("edge") {
		interference.SetRouter(id, spec.Not(reused))
	}
	for rr := 0; rr < p.Regions; rr++ {
		if rr == r {
			continue
		}
		// Other regions' reused routes carry exactly their own tag; a
		// weaker "has C_rr" invariant would admit doubly-tagged routes
		// that region r's import filters could not tell apart.
		other := spec.Implies(reused, spec.OnlyCommunityAmong(regionals, RegionComm(rr)))
		for _, id := range n.RoutersByRegion(regionName(rr)) {
			interference.SetRouter(id, other)
		}
	}
	// Edge locations inherit the sending router's invariant.
	for _, e := range n.Edges() {
		if n.IsExternal(e.From) {
			continue
		}
		sender := n.Node(e.From)
		switch {
		case sender.Region == region:
			interference.SetEdge(e, spec.Implies(reused, good))
		case sender.Role == "edge":
			interference.SetEdge(e, spec.Not(reused))
		default:
			interference.SetEdge(e, spec.Implies(reused,
				spec.OnlyCommunityAmong(regionals, RegionComm(regionIndex(sender.Region)))))
		}
	}

	return &core.LivenessProblem{
		Network: n,
		Property: core.Property{
			Loc:  core.AtRouter(r2),
			Pred: spec.And(from, reused),
			Desc: fmt.Sprintf("region %d reused routes reach %s", r, r2),
		},
		Steps: []core.PathStep{
			{Loc: core.AtEdge(topology.Edge{From: d, To: r1}), Constraint: spec.And(from, reused)},
			{Loc: core.AtRouter(r1), Constraint: good, PrefixPred: reused},
			{Loc: core.AtEdge(topology.Edge{From: r1, To: r2}), Constraint: good},
			{Loc: core.AtRouter(r2), Constraint: good, PrefixPred: reused},
		},
		Ghosts:                 []core.GhostDef{FromRegionGhost(n, r)},
		InterferenceInvariants: interference,
	}
}
