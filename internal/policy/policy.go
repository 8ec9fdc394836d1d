// Package policy defines the route-map intermediate representation shared by
// the whole system: the parser produces it, the BGP simulator executes it
// concretely, and the verifiers (Lightyear and the Minesweeper baseline)
// encode it symbolically. A route map is an ordered list of clauses; each
// clause has match conditions (route predicates from internal/spec), a list
// of attribute-transforming actions, and a permit/deny verdict. The first
// clause whose matches all hold applies; if none applies the map's default
// verdict is used (deny, as in common vendor semantics, unless configured
// otherwise).
//
// The Import/Export functions of the paper's policy model (§3.1) are
// obtained by attaching route maps to directed edges; see internal/topology.
package policy

import (
	"fmt"
	"strconv"
	"strings"

	"lightyear/internal/routemodel"
	"lightyear/internal/smt"
	"lightyear/internal/spec"
)

// Action transforms a route. Every action has a concrete semantics (Apply,
// in place) and a symbolic semantics (ApplySym, in place on a derived
// SymRoute); the two must agree, which is verified by property tests.
type Action interface {
	Apply(r *routemodel.Route)
	ApplySym(sr *spec.SymRoute)
	String() string
	AddToUniverse(u *spec.Universe)
}

// SetLocalPref sets the LOCAL_PREF attribute.
type SetLocalPref struct{ Value uint32 }

func (a SetLocalPref) Apply(r *routemodel.Route) { r.LocalPref = a.Value }
func (a SetLocalPref) ApplySym(sr *spec.SymRoute) {
	sr.LocalPref = sr.Ctx.BV(uint64(a.Value), spec.WidthLocalPref)
}
func (a SetLocalPref) String() string               { return fmt.Sprintf("set local-pref %d", a.Value) }
func (SetLocalPref) AddToUniverse(u *spec.Universe) {}

// SetMED sets the MED attribute.
type SetMED struct{ Value uint32 }

func (a SetMED) Apply(r *routemodel.Route) { r.MED = a.Value }
func (a SetMED) ApplySym(sr *spec.SymRoute) {
	sr.MED = sr.Ctx.BV(uint64(a.Value), spec.WidthMED)
}
func (a SetMED) String() string               { return fmt.Sprintf("set med %d", a.Value) }
func (SetMED) AddToUniverse(u *spec.Universe) {}

// SetNextHop sets the NEXT_HOP attribute.
type SetNextHop struct{ Value uint32 }

func (a SetNextHop) Apply(r *routemodel.Route) { r.NextHop = a.Value }
func (a SetNextHop) ApplySym(sr *spec.SymRoute) {
	sr.NextHop = sr.Ctx.BV(uint64(a.Value), spec.WidthNextHop)
}
func (a SetNextHop) String() string               { return fmt.Sprintf("set next-hop %d", a.Value) }
func (SetNextHop) AddToUniverse(u *spec.Universe) {}

// AddCommunity tags the route with a community (additive).
type AddCommunity struct{ Comm routemodel.Community }

func (a AddCommunity) Apply(r *routemodel.Route)      { r.AddCommunity(a.Comm) }
func (a AddCommunity) ApplySym(sr *spec.SymRoute)     { sr.SetComm(a.Comm, sr.Ctx.True()) }
func (a AddCommunity) String() string                 { return fmt.Sprintf("set community add %s", a.Comm) }
func (a AddCommunity) AddToUniverse(u *spec.Universe) { u.AddCommunity(a.Comm) }

// DeleteCommunity strips one community from the route.
type DeleteCommunity struct{ Comm routemodel.Community }

func (a DeleteCommunity) Apply(r *routemodel.Route)  { r.RemoveCommunity(a.Comm) }
func (a DeleteCommunity) ApplySym(sr *spec.SymRoute) { sr.SetComm(a.Comm, sr.Ctx.False()) }
func (a DeleteCommunity) String() string {
	return fmt.Sprintf("set community delete %s", a.Comm)
}
func (a DeleteCommunity) AddToUniverse(u *spec.Universe) { u.AddCommunity(a.Comm) }

// ClearCommunities removes every community (set community none).
type ClearCommunities struct{}

func (ClearCommunities) Apply(r *routemodel.Route) { r.ClearCommunities() }
func (ClearCommunities) ApplySym(sr *spec.SymRoute) {
	for _, c := range sr.Universe().Communities() {
		sr.SetComm(c, sr.Ctx.False())
	}
}
func (ClearCommunities) String() string                 { return "set community none" }
func (ClearCommunities) AddToUniverse(u *spec.Universe) {}

// PrependAS prepends an AS number Count times (AS-path prepending). The
// symbolic encoding tracks path length and AS membership.
type PrependAS struct {
	AS    uint32
	Count int
}

func (a PrependAS) Apply(r *routemodel.Route) {
	for i := 0; i < a.Count; i++ {
		r.PrependAS(a.AS)
	}
}

func (a PrependAS) ApplySym(sr *spec.SymRoute) {
	ctx := sr.Ctx
	sr.PathLen = ctx.Add(sr.PathLen, ctx.BV(uint64(a.Count), spec.WidthPathLen))
	sr.SetAS(a.AS, ctx.True())
}

func (a PrependAS) String() string                 { return fmt.Sprintf("set as-path prepend %d x%d", a.AS, a.Count) }
func (a PrependAS) AddToUniverse(u *spec.Universe) { u.AddASN(a.AS) }

// SetGhost sets a ghost attribute (§4.4). Ghost actions never appear in
// parsed configurations; the verifier attaches them to edges according to
// the property's ghost definitions.
type SetGhost struct {
	Name  string
	Value bool
}

func (a SetGhost) Apply(r *routemodel.Route) { r.SetGhost(a.Name, a.Value) }
func (a SetGhost) ApplySym(sr *spec.SymRoute) {
	sr.SetGhost(a.Name, sr.Ctx.Bool(a.Value))
}
func (a SetGhost) String() string                 { return fmt.Sprintf("set ghost %s %v", a.Name, a.Value) }
func (a SetGhost) AddToUniverse(u *spec.Universe) { u.AddGhost(a.Name) }

// Clause is one term of a route map: if all Matches hold on the input route,
// the Actions apply and the Verdict decides acceptance.
type Clause struct {
	Seq     int
	Matches []spec.Pred // conjunction; empty matches everything
	Actions []Action
	Permit  bool
}

// Matched reports whether the clause's matches all hold on r.
func (c *Clause) Matched(r *routemodel.Route) bool {
	for _, m := range c.Matches {
		if !m.Eval(r) {
			return false
		}
	}
	return true
}

// RouteMap is an ordered sequence of clauses with a default verdict.
type RouteMap struct {
	Name          string
	Clauses       []Clause
	DefaultPermit bool
}

// PermitAll is the identity route map: accept everything unchanged. A nil
// *RouteMap behaves identically; PermitAll exists for explicitness.
func PermitAll(name string) *RouteMap {
	return &RouteMap{Name: name, DefaultPermit: true}
}

// DenyAll rejects everything.
func DenyAll(name string) *RouteMap {
	return &RouteMap{Name: name, DefaultPermit: false}
}

// Apply runs the route map on r, returning the transformed route and whether
// it was accepted. The input route is never mutated; the returned route is a
// fresh clone even when accepted unchanged. A nil map permits everything.
func (m *RouteMap) Apply(r *routemodel.Route) (*routemodel.Route, bool) {
	if m == nil {
		return r.Clone(), true
	}
	for i := range m.Clauses {
		c := &m.Clauses[i]
		if !c.Matched(r) {
			continue
		}
		if !c.Permit {
			return nil, false
		}
		out := r.Clone()
		for _, a := range c.Actions {
			a.Apply(out)
		}
		return out, true
	}
	if m.DefaultPermit {
		return r.Clone(), true
	}
	return nil, false
}

// Encode produces the symbolic semantics of the route map applied to the
// symbolic input route sr: the derived output route and a boolean term that
// is true iff the input is accepted. Matches are evaluated against the
// input route (first-match semantics), mirroring Apply.
func (m *RouteMap) Encode(sr *spec.SymRoute) (*spec.SymRoute, *smt.Term) {
	ctx := sr.Ctx
	if m == nil {
		return sr.Clone(), ctx.True()
	}
	// Fold clauses from the last to the first so that earlier clauses win.
	out := sr.Clone()
	accepted := ctx.Bool(m.DefaultPermit)
	for i := len(m.Clauses) - 1; i >= 0; i-- {
		c := &m.Clauses[i]
		match := ctx.True()
		for _, p := range c.Matches {
			match = ctx.And(match, p.Compile(sr))
		}
		if c.Permit {
			eff := sr.Clone()
			for _, a := range c.Actions {
				a.ApplySym(eff)
			}
			out = spec.Ite(match, eff, out)
			accepted = ctx.Ite(match, ctx.True(), accepted)
		} else {
			// Deny: the output route is irrelevant; keep the else branch.
			accepted = ctx.Ite(match, ctx.False(), accepted)
			out = spec.Ite(match, sr, out)
		}
	}
	return out, accepted
}

// AddToUniverse records every community/ASN/ghost the route map mentions.
func (m *RouteMap) AddToUniverse(u *spec.Universe) {
	if m == nil {
		return
	}
	for i := range m.Clauses {
		for _, p := range m.Clauses[i].Matches {
			p.AddToUniverse(u)
		}
		for _, a := range m.Clauses[i].Actions {
			a.AddToUniverse(u)
		}
	}
}

// Fingerprint is the route map's content fingerprint: spec.Sum over its
// rendering, which spells out every clause field. A nil map has the
// fingerprint of the implicit permit-all. It is not memoised here — a
// RouteMap is a plain value its builder may still edit — but per edge on the
// built topology.Network.
func (m *RouteMap) Fingerprint() spec.Fingerprint { return spec.Sum(m.String()) }

// ActionsFingerprint fingerprints an ordered action list (the ghost updates
// a check applies to its filter's output).
func ActionsFingerprint(as []Action) spec.Fingerprint {
	var b strings.Builder
	for _, a := range as {
		b.WriteString(a.String())
		b.WriteByte(';')
	}
	return spec.Sum(b.String())
}

// String renders the route map in a config-like notation.
func (m *RouteMap) String() string {
	if m == nil {
		return "<permit-all>"
	}
	var b strings.Builder
	b.WriteString("route-map ")
	b.WriteString(m.Name)
	if m.DefaultPermit {
		b.WriteString(" default-permit")
	}
	for i := range m.Clauses {
		c := &m.Clauses[i]
		b.WriteString("\n  term ")
		b.WriteString(strconv.Itoa(c.Seq))
		if c.Permit {
			b.WriteString(" permit")
		} else {
			b.WriteString(" deny")
		}
		for _, p := range c.Matches {
			b.WriteString("\n    match ")
			b.WriteString(p.String())
		}
		for _, a := range c.Actions {
			b.WriteString("\n    ")
			b.WriteString(a.String())
		}
	}
	b.WriteString("\n")
	return b.String()
}
