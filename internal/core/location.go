// Package core implements Lightyear's modular control-plane verification:
// safety verification via per-edge local checks (§4 of the paper), liveness
// verification via propagation and no-interference checks along a path (§5),
// the ghost-attribute framework (§4.4), and parallel check execution.
//
// The entry points are VerifySafety and VerifyLiveness. Both take a
// verification problem (network + property + user-provided local
// constraints) and return a Report of local check results; if every check
// passes, the end-to-end property is guaranteed for all possible external
// route announcements — and, for safety properties, under arbitrary node and
// link failures (§4.5).
package core

import (
	"fmt"
	"strconv"
	"sync"

	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// Location identifies a network location per §4.1: either a configured
// router or a directed session edge. Locations are comparable, so they key
// maps directly.
type Location struct {
	a, b   topology.NodeID // the router, or the edge's From and To
	isEdge bool
}

// AtRouter returns the location of a router.
func AtRouter(id topology.NodeID) Location { return Location{a: id} }

// AtEdge returns the location of a directed edge.
func AtEdge(e topology.Edge) Location { return Location{a: e.From, b: e.To, isEdge: true} }

// IsEdge reports whether the location is an edge.
func (l Location) IsEdge() bool { return l.isEdge }

// Router returns the router ID of a router location.
func (l Location) Router() topology.NodeID { return l.a }

// Edge returns the edge of an edge location.
func (l Location) Edge() topology.Edge { return topology.Edge{From: l.a, To: l.b} }

// String renders "R" or "A -> B".
func (l Location) String() string {
	if l.isEdge {
		return l.Edge().String()
	}
	return string(l.a)
}

// less orders locations the way their renderings sort ("R" before
// "R -> X"), without rendering them.
func (l Location) less(o Location) bool {
	if l.a != o.a {
		return l.a < o.a
	}
	if l.isEdge != o.isEdge {
		return o.isEdge
	}
	return l.b < o.b
}

// Property is an end-to-end property (ℓ, P): at location ℓ, predicate P. For
// safety, every route reaching ℓ must satisfy P; for liveness, some route
// satisfying P must eventually reach ℓ.
type Property struct {
	Loc  Location
	Pred spec.Pred
	Desc string // human-readable description for reports
}

func (p Property) String() string {
	if p.Desc != "" {
		return fmt.Sprintf("%s @ %s (%s)", p.Pred, p.Loc, p.Desc)
	}
	return fmt.Sprintf("%s @ %s", p.Pred, p.Loc)
}

// Invariants assigns a network invariant I_ℓ to every location (§4.1). Users
// typically set a handful of location-specific invariants plus a default
// that captures the "key invariant" holding across the rest of the network
// (the three-part structure described in §2.1). Edges whose source is an
// external router are always treated as unconstrained (True), mirroring the
// paper's requirement I_{R→N} = Routes for R ∈ Externals.
type Invariants struct {
	def        *predicate
	byLocation map[Location]*predicate
}

// predicate is a spec.Pred together with what check generation memoises
// about it — its content fingerprint (for keys) and its quoted rendering (for
// descriptions) — both computed from one String() on first use. Owners
// replace the whole entry rather than its pred, so the memo cannot go stale.
type predicate struct {
	pred   spec.Pred
	once   sync.Once
	fp     spec.Fingerprint
	quoted string
}

func (p *predicate) memo() *predicate {
	p.once.Do(func() {
		s := p.pred.String()
		p.fp, p.quoted = spec.Sum(s), strconv.Quote(s)
	})
	return p
}

// unconstrained is the invariant of every location nothing was assigned to.
var unconstrained = &predicate{pred: spec.True()}

// NewInvariants returns an invariant map with the given default predicate.
func NewInvariants(def spec.Pred) *Invariants {
	inv := &Invariants{def: unconstrained, byLocation: make(map[Location]*predicate)}
	if def != nil {
		inv.def = &predicate{pred: def}
	}
	return inv
}

// Set assigns the invariant for one location, overriding the default.
func (inv *Invariants) Set(loc Location, p spec.Pred) *Invariants {
	inv.byLocation[loc] = &predicate{pred: p}
	return inv
}

// SetRouter assigns the invariant for a router location.
func (inv *Invariants) SetRouter(id topology.NodeID, p spec.Pred) *Invariants {
	return inv.Set(AtRouter(id), p)
}

// SetEdge assigns the invariant for an edge location.
func (inv *Invariants) SetEdge(e topology.Edge, p spec.Pred) *Invariants {
	return inv.Set(AtEdge(e), p)
}

// At returns the invariant for a location within the given network.
// Edges from external routers are unconstrained regardless of settings.
func (inv *Invariants) At(n *topology.Network, loc Location) spec.Pred {
	return inv.at(n, loc).pred
}

func (inv *Invariants) at(n *topology.Network, loc Location) *predicate {
	if loc.isEdge && n.IsExternal(loc.a) {
		return unconstrained
	}
	if i, ok := inv.byLocation[loc]; ok {
		return i
	}
	return inv.def
}

// AddToUniverse collects attribute mentions from every invariant.
func (inv *Invariants) AddToUniverse(u *spec.Universe) {
	inv.def.pred.AddToUniverse(u)
	for _, i := range inv.byLocation {
		i.pred.AddToUniverse(u)
	}
}
