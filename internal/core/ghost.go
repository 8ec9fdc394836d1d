package core

import (
	"strconv"
	"strings"

	"lightyear/internal/policy"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// GhostDef defines a ghost attribute (§4.4): a boolean field conceptually
// added to every route, updated by designated import/export filters and
// fixed on originated routes. Ghost attributes never affect routing; they
// exist so properties like "this route came from ISP1" become expressible.
type GhostDef struct {
	Name string

	// OnImport, if non-nil, is consulted for each import edge; returning
	// (v, true) makes the import filter on that edge set the ghost to v.
	// Returning (_, false) leaves the attribute unchanged.
	OnImport func(e topology.Edge) (value, set bool)

	// OnExport is the analogous hook for export filters.
	OnExport func(e topology.Edge) (value, set bool)

	// OnOriginate, if non-nil, gives the attribute value on routes
	// originated on edge e; a nil hook means false (the common case).
	OnOriginate func(e topology.Edge) bool
}

// GhostFromExternals builds the common "provenance" ghost of §2 and §6.1
// (FromISP1, FromPeer, FromRegion): true when the route was imported from an
// external neighbor satisfying isSource, false when imported from any other
// external neighbor, unchanged inside the network, false at origination.
func GhostFromExternals(name string, n *topology.Network, isSource func(id topology.NodeID) bool) GhostDef {
	return GhostDef{
		Name: name,
		OnImport: func(e topology.Edge) (bool, bool) {
			if !n.IsExternal(e.From) {
				return false, false // internal edge: unchanged
			}
			return isSource(e.From), true
		},
	}
}

// GhostWaypoint builds the waypoint ghost of §4.4: true once the route has
// been processed by router R — filters on R set it true; imports from
// external neighbors elsewhere set it false; originated routes start false.
func GhostWaypoint(name string, n *topology.Network, r topology.NodeID) GhostDef {
	return GhostDef{
		Name: name,
		OnImport: func(e topology.Edge) (bool, bool) {
			if e.To == r {
				return true, true
			}
			if n.IsExternal(e.From) {
				return false, true
			}
			return false, false
		},
		OnExport: func(e topology.Edge) (bool, bool) {
			if e.From == r {
				return true, true
			}
			return false, false
		},
		OnOriginate: func(e topology.Edge) bool { return e.From == r },
	}
}

// ghostSet is one distinct list of ghost updates with its fingerprint. id
// numbers the distinct lists of one table in first-seen order.
type ghostSet struct {
	acts []policy.Action
	fp   spec.Fingerprint
	id   int
}

// ghostTable interns the ghost-update lists of one problem: edges on which
// the ghost definitions set the same attributes to the same values share one
// action list and one fingerprint, built the first time the combination is
// seen rather than once per check. Origination values are interned the same
// way.
type ghostTable struct {
	ghosts  []GhostDef
	sets    map[string]ghostSet
	origins map[string]ghostSet // no actions: the fingerprint of names and values
	code    []byte              // scratch, per ghost: 0 unchanged, 1 set false, 2 set true
}

func newGhostTable(ghosts []GhostDef) *ghostTable {
	return &ghostTable{ghosts: ghosts, sets: make(map[string]ghostSet),
		origins: make(map[string]ghostSet), code: make([]byte, len(ghosts))}
}

// onFilter returns the SetGhost actions the ghost definitions attach to the
// import (or export) filter on edge e.
func (t *ghostTable) onFilter(e topology.Edge, importSide bool) ghostSet {
	for i := range t.ghosts {
		hook := t.ghosts[i].OnExport
		if importSide {
			hook = t.ghosts[i].OnImport
		}
		t.code[i] = 0
		if hook != nil {
			if v, set := hook(e); set {
				t.code[i] = 1 + boolByte(v)
			}
		}
	}
	gs, ok := t.sets[string(t.code)]
	if !ok {
		for i, c := range t.code {
			if c != 0 {
				gs.acts = append(gs.acts, policy.SetGhost{Name: t.ghosts[i].Name, Value: c == 2})
			}
		}
		gs.fp = policy.ActionsFingerprint(gs.acts)
		gs.id = len(t.sets)
		t.sets[string(t.code)] = gs
	}
	return gs
}

// onOriginate returns the fingerprint of every ghost's name and the value it
// takes on routes originated on edge e — what an originate check's verdict
// reads of the ghost definitions.
func (t *ghostTable) onOriginate(e topology.Edge) ghostSet {
	for i := range t.ghosts {
		t.code[i] = 0
		if hook := t.ghosts[i].OnOriginate; hook != nil {
			t.code[i] = boolByte(hook(e))
		}
	}
	gs, ok := t.origins[string(t.code)]
	if !ok {
		var b strings.Builder
		for i, g := range t.ghosts {
			b.WriteString(strconv.Quote(g.Name))
			b.WriteByte('=')
			b.WriteByte('0' + t.code[i])
			b.WriteByte(';')
		}
		gs.fp, gs.id = spec.Sum(b.String()), len(t.origins)
		t.origins[string(t.code)] = gs
	}
	return gs
}

// applyGhostsSym applies ghost actions to a derived symbolic route.
func applyGhostsSym(sr *spec.SymRoute, acts []policy.Action) *spec.SymRoute {
	if len(acts) == 0 {
		return sr
	}
	out := sr.Clone()
	for _, a := range acts {
		a.ApplySym(out)
	}
	return out
}

// applyGhostsConcrete applies ghost actions to a concrete route in place.
func applyGhostsConcrete(r *routemodel.Route, acts []policy.Action) {
	for _, a := range acts {
		a.Apply(r)
	}
}

// originatedWithGhosts returns a copy of an originated route with every
// ghost attribute set to its origination value for edge e.
func originatedWithGhosts(r *routemodel.Route, e topology.Edge, ghosts []GhostDef) *routemodel.Route {
	out := r.Clone()
	for _, g := range ghosts {
		v := false
		if g.OnOriginate != nil {
			v = g.OnOriginate(e)
		}
		out.SetGhost(g.Name, v)
	}
	return out
}

// addGhostsToUniverse registers all ghost names.
func addGhostsToUniverse(u *spec.Universe, ghosts []GhostDef) {
	for _, g := range ghosts {
		u.AddGhost(g.Name)
	}
}
