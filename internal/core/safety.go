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
// scalability (Figure 3b).
func (p *SafetyProblem) Checks(opts Options) []Check {
	g := p.generator(opts)
	checks := make([]Check, 0, 2*len(g.idx.Edges)+1)
	for i := range g.idx.Edges {
		checks = g.edge(checks, i)
	}
	return append(checks, g.implication())
}

// NumChecks returns len(p.Checks(opts)) without generating any check: per
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

// ChecksAt generates what Checks generates at the given edges only —
// positions in the network's PolicyIndex, ascending — followed by the
// implication check, in Checks' order. It is the re-enumeration of an
// incremental update that knows, from equal Frames and equal per-edge policy
// fingerprints, that every other edge's checks keep their keys.
func (p *SafetyProblem) ChecksAt(opts Options, edges []int) []Check {
	g := p.generator(opts)
	checks := make([]Check, 0, 2*len(edges)+1)
	for _, i := range edges {
		checks = g.edge(checks, i)
	}
	return append(checks, g.implication())
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
	opts      Options
}

func (p *SafetyProblem) generator(opts Options) *checkGen {
	return &checkGen{p: p, u: p.universe(), idx: p.Network.Index(), ghosts: newGhostTable(p.Ghosts),
		routerInv: make(map[topology.NodeID]*predicate), opts: opts}
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
	n, e, idx, opts := g.p.Network, g.idx.Edges[i], g.idx, g.opts
	edgeInv := g.p.Invariants.at(n, AtEdge(e))
	if !n.IsExternal(e.To) {
		checks = append(checks, filterCheck(ImportCheck, e,
			filterObligation{u: g.u, m: n.Import(e), importSide: true}, idx.Import[i],
			g.ghosts.onFilter(e, true), edgeInv, g.atRouter(e.To), opts))
	}
	if !n.IsExternal(e.From) {
		checks = append(checks, filterCheck(ExportCheck, e,
			filterObligation{u: g.u, m: n.Export(e)}, idx.Export[i],
			g.ghosts.onFilter(e, false), g.atRouter(e.From), edgeInv, opts))
		if routes := n.Originate(e); len(routes) > 0 {
			checks = append(checks, originateCheck(e, routes, idx.Originate[i],
				g.p.Ghosts, g.ghosts.onOriginate(e).fp, edgeInv, opts))
		}
	}
	return checks
}

// implication builds the I_ℓ ⊆ P check.
func (g *checkGen) implication() Check {
	p := g.p
	return implicationCheck(p.Property.Loc, g.u, p.Invariants.at(p.Network, p.Property.Loc),
		&predicate{pred: p.Property.Pred}, false, g.opts)
}

// Frame returns the problem's frame digest: a fingerprint of every input of
// its check keys other than the per-edge policy fingerprints of the
// network's PolicyIndex. It covers the property's location and predicate,
// the invariants' default and every explicit entry, the ghost names and, per
// edge, the ghost updates on its import and export filters and the ghosts'
// origination values. Two problems over networks with the same nodes and
// edges and equal frames generate, at every edge whose policy fingerprints
// are equal, the same checks with the same keys, and equal implication
// checks — what lets an incremental update regenerate only the edges a diff
// changed (ChecksAt).
func (p *SafetyProblem) Frame() spec.Fingerprint {
	idx := p.Network.Index()
	ghosts := newGhostTable(p.Ghosts)
	b := make([]byte, 0, 256+3*len(idx.Edges))
	b = appendLocation(b, p.Property.Loc)
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
