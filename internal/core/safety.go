package core

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"

	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// SafetyProblem is the input to modular safety verification (§4.1): the
// network, the end-to-end property (ℓ, P), the per-location network
// invariants I, and any ghost attribute definitions the predicates rely on.
type SafetyProblem struct {
	Network    *topology.Network
	Property   Property
	Invariants *Invariants
	Ghosts     []GhostDef

	family *SafetyProblem // set by At
}

// At poses p at another location: the result shares p's network, predicate,
// invariants and ghosts, and differs from p only in Property.Loc and
// Property.Desc. One set of invariants serves a property everywhere (Table
// 4a); only the implication check reads the location.
func (p *SafetyProblem) At(loc Location, desc string) *SafetyProblem {
	q := *p
	q.Property.Loc, q.Property.Desc, q.family = loc, desc, p.Family()
	return &q
}

// Family returns the problem p was posed from with At — the first, when a
// posed problem was posed again — or p itself when it was built on its own.
// Problems of one family have equal Frames and generate the same edge
// checks.
func (p *SafetyProblem) Family() *SafetyProblem {
	if p.family != nil {
		return p.family
	}
	return p
}

// universe assembles the finite attribute alphabet for the problem.
func (p *SafetyProblem) universe() *spec.Universe {
	u := p.Network.Universe()
	p.Property.Pred.AddToUniverse(u)
	p.Invariants.AddToUniverse(u)
	addGhostsToUniverse(u, p.Ghosts)
	return u
}

// Checks generates the local checks of §4.2 without running them:
//
//   - an Import check per edge A→B with B internal, proving I_B from I_{A→B};
//   - an Export check per edge A→B with A internal, proving I_{A→B} from I_A;
//   - an Originate check per edge with originated routes;
//   - one Implication check proving I_ℓ ⊆ P.
//
// The number of checks is linear in the number of edges; each check's size
// depends only on one filter's policy, which is the source of Lightyear's
// scalability (Figure 3b). Generation reads nothing from Options, whose
// only setting (Workers) is VerifySafety's.
func (p *SafetyProblem) Checks(Options) []Check {
	g := p.generator()
	checks := make([]Check, 0, 2*len(g.idx.Edges)+1)
	for i := range g.idx.Edges {
		checks = g.edge(checks, i)
	}
	return append(checks, g.implication())
}

// NumChecks returns len(p.Checks(Options{})) without generating any check: per
// edge of the policy index, one import check when the receiver is internal,
// one export check when the sender is internal and one originate check when
// the sender is internal and originates routes on the edge, plus the
// implication. Admission prices a plan with it.
func (p *SafetyProblem) NumChecks() int {
	n := p.Network
	count := 1
	for _, e := range n.Index().Edges {
		if !n.IsExternal(e.To) {
			count++
		}
		if !n.IsExternal(e.From) {
			count++
			if len(n.Originate(e)) > 0 {
				count++
			}
		}
	}
	return count
}

// EdgeChecks generates the import, export and originate checks of the
// given edges — positions in the network's PolicyIndex, ascending — in
// Checks' order, without the implication check. Edge checks never read the
// property's location, so every problem of one Family generates the same
// ones: a run generates them once per family and poses them for each.
func (p *SafetyProblem) EdgeChecks(edges []int) []Check {
	g := p.generator()
	checks := make([]Check, 0, 2*len(edges))
	for _, i := range edges {
		checks = g.edge(checks, i)
	}
	return checks
}

// ImplicationCheck generates the I_ℓ ⊆ P check alone: the one check of
// Checks that reads the property's location.
func (p *SafetyProblem) ImplicationCheck() Check {
	return (&checkGen{p: p, u: p.universe()}).implication()
}

// checkGen is what generating one problem's checks shares across edges: the
// attribute universe, the network's policy index, the interned ghost updates
// and the router invariants resolved so far.
type checkGen struct {
	p         *SafetyProblem
	u         *spec.Universe
	idx       *topology.PolicyIndex
	ghosts    *ghostTable
	routerInv map[topology.NodeID]*predicate
}

func (p *SafetyProblem) generator() *checkGen {
	return &checkGen{p: p, u: p.universe(), idx: p.Network.Index(), ghosts: newGhostTable(p.Ghosts),
		routerInv: make(map[topology.NodeID]*predicate)}
}

func (g *checkGen) atRouter(id topology.NodeID) *predicate {
	inv, ok := g.routerInv[id]
	if !ok {
		inv = g.p.Invariants.at(g.p.Network, AtRouter(id))
		g.routerInv[id] = inv
	}
	return inv
}

// edge appends the checks of the i-th edge of the policy index.
func (g *checkGen) edge(checks []Check, i int) []Check {
	n, e, idx := g.p.Network, g.idx.Edges[i], g.idx
	edgeInv := g.p.Invariants.at(n, AtEdge(e))
	if !n.IsExternal(e.To) {
		checks = append(checks, filterCheck(ImportCheck, e,
			filterObligation{u: g.u, m: n.Import(e), importSide: true}, idx.Import[i],
			g.ghosts.onFilter(e, true), edgeInv, g.atRouter(e.To)))
	}
	if !n.IsExternal(e.From) {
		checks = append(checks, filterCheck(ExportCheck, e,
			filterObligation{u: g.u, m: n.Export(e)}, idx.Export[i],
			g.ghosts.onFilter(e, false), g.atRouter(e.From), edgeInv))
		if routes := n.Originate(e); len(routes) > 0 {
			checks = append(checks, originateCheck(e, routes, idx.Originate[i],
				g.p.Ghosts, g.ghosts.onOriginate(e).fp, edgeInv))
		}
	}
	return checks
}

// implication builds the I_ℓ ⊆ P check.
func (g *checkGen) implication() Check {
	p := g.p
	return implicationCheck(p.Property.Loc, g.u, p.Invariants.at(p.Network, p.Property.Loc),
		&predicate{pred: p.Property.Pred}, false)
}

// Frame returns the problem's edge frame digest: a fingerprint of every
// input of its edge checks' keys other than the per-edge policy
// fingerprints of the network's PolicyIndex. It covers the property's
// predicate (it feeds the attribute universe), the invariants' default and
// every explicit entry, the ghost names and, per edge, the ghost updates on
// its import and export filters and the ghosts' origination values. Two
// problems over networks with the same nodes and edges and equal frames
// generate, at every edge whose policy fingerprints are equal, the same
// checks with the same keys — what lets an incremental update regenerate
// only the edges a diff changed (EdgeChecks). The property's location is
// left out, so every problem of one Family has its family's frame. A run
// knows which problems share edge checks by their Family; the digest is
// for what outlives the problems: the index an incremental update is
// served from, across runs over rebuilt problems.
func (p *SafetyProblem) Frame() spec.Fingerprint {
	idx := p.Network.Index()
	ghosts := newGhostTable(p.Ghosts)
	b := make([]byte, 0, 256+3*len(idx.Edges))
	b = append(b, (&predicate{pred: p.Property.Pred}).memo().fp[:]...)
	b = append(b, p.Invariants.def.memo().fp[:]...)
	locs := make([]Location, 0, len(p.Invariants.byLocation))
	for loc := range p.Invariants.byLocation {
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i].less(locs[j]) })
	b = binary.AppendUvarint(b, uint64(len(locs)))
	for _, loc := range locs {
		b = append(appendLocation(b, loc), p.Invariants.byLocation[loc].memo().fp[:]...)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Ghosts)))
	for _, gd := range p.Ghosts {
		b = strconv.AppendQuote(b, gd.Name)
	}
	// Per edge, the interned ghost lists by first-seen number; the lists'
	// fingerprints follow in that order, so equal bytes mean equal
	// fingerprints at every edge.
	for _, e := range idx.Edges {
		b = binary.AppendUvarint(b, uint64(ghosts.onFilter(e, true).id))
		b = binary.AppendUvarint(b, uint64(ghosts.onFilter(e, false).id))
		b = binary.AppendUvarint(b, uint64(ghosts.onOriginate(e).id))
	}
	for _, sets := range []map[string]ghostSet{ghosts.sets, ghosts.origins} {
		fps := make([]spec.Fingerprint, len(sets))
		for _, gs := range sets {
			fps[gs.id] = gs.fp
		}
		b = binary.AppendUvarint(b, uint64(len(fps)))
		for i := range fps {
			b = append(b, fps[i][:]...)
		}
	}
	sum := sha256.Sum256(b)
	return spec.Fingerprint(sum[:16])
}

// appendLocation writes a location for Frame.
func appendLocation(b []byte, loc Location) []byte {
	b = append(b, boolByte(loc.isEdge))
	b = append(append(b, loc.a...), 0)
	return append(append(b, loc.b...), 0)
}

// VerifySafety runs all local checks for a safety problem. If the returned
// report is OK, the property holds for all valid traces — all external
// announcements and arbitrary node/link failures (Theorem §4.3, §4.5).
func VerifySafety(p *SafetyProblem, opts Options) *Report {
	return runChecks(p.Property, p.Checks(opts), opts)
}
