package core

import (
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
	u := p.universe()
	n := p.Network
	idx := n.Index()
	ghosts := newGhostTable(p.Ghosts)
	ghostNames := ghosts.namesFingerprint()
	routerInv := make(map[topology.NodeID]*predicate)
	atRouter := func(id topology.NodeID) *predicate {
		inv, ok := routerInv[id]
		if !ok {
			inv = p.Invariants.at(n, AtRouter(id))
			routerInv[id] = inv
		}
		return inv
	}
	checks := make([]Check, 0, 2*len(idx.Edges)+1)
	for i, e := range idx.Edges {
		edgeInv := p.Invariants.at(n, AtEdge(e))
		if !n.IsExternal(e.To) {
			checks = append(checks, filterCheck(ImportCheck, e,
				filterObligation{u: u, m: n.Import(e), importSide: true}, idx.Import[i],
				ghosts.onFilter(e, true), edgeInv, atRouter(e.To), opts))
		}
		if !n.IsExternal(e.From) {
			checks = append(checks, filterCheck(ExportCheck, e,
				filterObligation{u: u, m: n.Export(e)}, idx.Export[i],
				ghosts.onFilter(e, false), atRouter(e.From), edgeInv, opts))
			if routes := n.Originate(e); len(routes) > 0 {
				checks = append(checks, originateCheck(e, routes, idx.Originate[i],
					p.Ghosts, ghostNames, edgeInv, opts))
			}
		}
	}
	return append(checks, implicationCheck(p.Property.Loc, u,
		p.Invariants.at(n, p.Property.Loc), &predicate{pred: p.Property.Pred}, false, opts))
}

// VerifySafety runs all local checks for a safety problem. If the returned
// report is OK, the property holds for all valid traces — all external
// announcements and arbitrary node/link failures (Theorem §4.3, §4.5).
func VerifySafety(p *SafetyProblem, opts Options) *Report {
	return runChecks(p.Property, p.Checks(opts), opts)
}
