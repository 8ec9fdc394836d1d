// Package spec provides the specification language of Lightyear: predicates
// over BGP routes. A predicate is the formal counterpart of the sets of
// routes P, I_ℓ and C_i from §4 and §5 of the paper — the end-to-end
// property, per-location network invariants, and path constraints are all
// route predicates.
//
// Every predicate has two semantics that must agree:
//
//   - a concrete semantics (Eval) over routemodel.Route, used by the BGP
//     simulator and for counterexample validation, and
//   - a symbolic semantics (Compile) that produces an smt.Term over a
//     SymRoute, used by the verifier's local checks.
//
// The package also defines SymRoute, the symbolic route representation: one
// SMT variable per modeled attribute, with communities, AS numbers, and
// ghost attributes finitized to the Universe that appears in the
// configurations and specifications (the standard encoding used by SMT-based
// control-plane verifiers such as Minesweeper). A community, AS or ghost
// variable is declared only when an encoding reads it, so a local check
// costs what its filter and predicates mention, not the size of the
// network's universe.
package spec

import (
	"fmt"
	"maps"
	"sort"
	"strconv"

	"lightyear/internal/routemodel"
	"lightyear/internal/smt"
)

// Attribute bit widths for the symbolic encoding. Widths are chosen to keep
// bit-blasted formulas small while covering the value ranges the encoded
// policies can produce.
const (
	WidthAddr      = 32
	WidthPrefixLen = 6
	WidthLocalPref = 16
	WidthMED       = 16
	WidthNextHop   = 16
	WidthPathLen   = 8
)

// Universe is the finite alphabet of route attributes relevant to a
// verification problem: every community, AS number, and ghost attribute
// mentioned by the configurations or the specifications. Routes are encoded
// relative to a Universe; attributes outside it cannot affect any check
// (see the universe-closure property test).
type Universe struct {
	comms  map[routemodel.Community]struct{}
	asns   map[uint32]struct{}
	ghosts map[string]struct{}
}

// NewUniverse returns an empty universe.
func NewUniverse() *Universe {
	return &Universe{
		comms:  make(map[routemodel.Community]struct{}),
		asns:   make(map[uint32]struct{}),
		ghosts: make(map[string]struct{}),
	}
}

// AddCommunity adds a community to the universe.
func (u *Universe) AddCommunity(c routemodel.Community) { u.comms[c] = struct{}{} }

// AddASN adds an AS number to the universe.
func (u *Universe) AddASN(as uint32) { u.asns[as] = struct{}{} }

// AddGhost adds a ghost attribute name to the universe.
func (u *Universe) AddGhost(name string) { u.ghosts[name] = struct{}{} }

// Merge adds all members of o into u.
func (u *Universe) Merge(o *Universe) {
	for c := range o.comms {
		u.comms[c] = struct{}{}
	}
	for a := range o.asns {
		u.asns[a] = struct{}{}
	}
	for g := range o.ghosts {
		u.ghosts[g] = struct{}{}
	}
}

// Communities returns the communities in deterministic order.
func (u *Universe) Communities() []routemodel.Community {
	out := make([]routemodel.Community, 0, len(u.comms))
	for c := range u.comms {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ASNs returns the AS numbers in deterministic order.
func (u *Universe) ASNs() []uint32 {
	out := make([]uint32, 0, len(u.asns))
	for a := range u.asns {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Ghosts returns the ghost attribute names in deterministic order.
func (u *Universe) Ghosts() []string {
	out := make([]string, 0, len(u.ghosts))
	for g := range u.ghosts {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// HasCommunity reports whether c is in the universe.
func (u *Universe) HasCommunity(c routemodel.Community) bool {
	_, ok := u.comms[c]
	return ok
}

// HasASN reports whether as is in the universe.
func (u *Universe) HasASN(as uint32) bool {
	_, ok := u.asns[as]
	return ok
}

// HasGhost reports whether the ghost attribute name is in the universe.
func (u *Universe) HasGhost(name string) bool {
	_, ok := u.ghosts[name]
	return ok
}

// SymRoute is a symbolic BGP route: each attribute is an SMT term. A fresh
// SymRoute (NewSymRoute) has one variable per attribute; route maps
// transform SymRoutes into derived SymRoutes whose attributes are arbitrary
// term expressions.
//
// The six bitvector attributes are plain fields. The boolean atoms — one
// per community, AS number and ghost attribute of the universe — are read
// with CommTerm, ASTerm and GhostTerm and written with SetComm, SetAS and
// SetGhost. An atom nothing has written is the route's own variable, which
// is declared in the Context the first time it is read, so an encoding
// holds only the atoms its route maps and predicates mention. A derived
// route records only the atoms an action or an Ite assigned.
type SymRoute struct {
	Ctx *smt.Context

	Addr      *smt.Term // 32-bit prefix address
	PrefixLen *smt.Term // 6-bit prefix length
	LocalPref *smt.Term
	MED       *smt.Term
	NextHop   *smt.Term
	PathLen   *smt.Term // AS-path length (8 bits)

	u    *Universe
	vars *atomVars // the variables of the route this one derives from

	// Atoms assigned since NewSymRoute; any other atom is its variable.
	comm  map[routemodel.Community]*smt.Term // membership booleans
	as    map[uint32]*smt.Term               // AS-path presence booleans
	ghost map[string]*smt.Term               // ghost attribute booleans
}

// atomVars declares a route's atom variables on first use and remembers
// them, so that a route and every route derived from it declare each atom
// at most once.
type atomVars struct {
	ctx   *smt.Context
	name  string
	comm  map[routemodel.Community]*smt.Term
	as    map[uint32]*smt.Term
	ghost map[string]*smt.Term
}

func (v *atomVars) commVar(c routemodel.Community) *smt.Term {
	if t, ok := v.comm[c]; ok {
		return t
	}
	t := v.ctx.BoolVar(commName(v.name, c))
	v.comm = memo(v.comm, c, t)
	return t
}

func (v *atomVars) asVar(as uint32) *smt.Term {
	if t, ok := v.as[as]; ok {
		return t
	}
	t := v.ctx.BoolVar(asName(v.name, as))
	v.as = memo(v.as, as, t)
	return t
}

func (v *atomVars) ghostVar(g string) *smt.Term {
	if t, ok := v.ghost[g]; ok {
		return t
	}
	t := v.ctx.BoolVar(ghostName(v.name, g))
	v.ghost = memo(v.ghost, g, t)
	return t
}

// memo sets m[k] = t, allocating m on first use.
func memo[K comparable](m map[K]*smt.Term, k K, t *smt.Term) map[K]*smt.Term {
	if m == nil {
		m = make(map[K]*smt.Term)
	}
	m[k] = t
	return m
}

// commName is "<route>.comm[<high>:<low>]", built without fmt.
func commName(route string, c routemodel.Community) string {
	var buf [64]byte
	b := append(buf[:0], route...)
	b = append(b, ".comm["...)
	b = strconv.AppendUint(b, uint64(c.High()), 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(c.Low()), 10)
	return string(append(b, ']'))
}

// asName is "<route>.as[<asn>]".
func asName(route string, as uint32) string {
	var buf [64]byte
	b := append(buf[:0], route...)
	b = append(b, ".as["...)
	b = strconv.AppendUint(b, uint64(as), 10)
	return string(append(b, ']'))
}

// ghostName is "<route>.ghost[<name>]".
func ghostName(route, g string) string { return route + ".ghost[" + g + "]" }

// NewSymRoute allocates a fully symbolic route named name ("r", "r_in", ...)
// over the given universe. It declares the six bitvector variables; each
// community, AS and ghost variable is declared when first read.
func NewSymRoute(ctx *smt.Context, name string, u *Universe) *SymRoute {
	return &SymRoute{
		Ctx:       ctx,
		Addr:      ctx.BVVar(name+".addr", WidthAddr),
		PrefixLen: ctx.BVVar(name+".plen", WidthPrefixLen),
		LocalPref: ctx.BVVar(name+".lp", WidthLocalPref),
		MED:       ctx.BVVar(name+".med", WidthMED),
		NextHop:   ctx.BVVar(name+".nh", WidthNextHop),
		PathLen:   ctx.BVVar(name+".pathlen", WidthPathLen),
		u:         u,
		vars:      &atomVars{ctx: ctx, name: name},
	}
}

// Name returns the base name used for this route's variables.
func (sr *SymRoute) Name() string { return sr.vars.name }

// Universe returns the universe the route was built over.
func (sr *SymRoute) Universe() *Universe { return sr.u }

// Clone returns a copy whose attributes can be reassigned independently
// (route-map encoding mutates the copy). It shares the variables of sr.
func (sr *SymRoute) Clone() *SymRoute {
	c := *sr
	c.comm = maps.Clone(sr.comm)
	c.as = maps.Clone(sr.as)
	c.ghost = maps.Clone(sr.ghost)
	return &c
}

// CommTerm returns the membership term for community c, panicking if c is
// outside the universe the route was built over (an encoding bug).
func (sr *SymRoute) CommTerm(c routemodel.Community) *smt.Term {
	if t, ok := sr.comm[c]; ok {
		return t
	}
	if !sr.u.HasCommunity(c) {
		panic(fmt.Sprintf("spec: community %s not in universe of route %q", c, sr.Name()))
	}
	return sr.vars.commVar(c)
}

// ASTerm returns the AS-presence term for as, panicking if it is outside
// the universe.
func (sr *SymRoute) ASTerm(as uint32) *smt.Term {
	if t, ok := sr.as[as]; ok {
		return t
	}
	if !sr.u.HasASN(as) {
		panic(fmt.Sprintf("spec: AS %d not in universe of route %q", as, sr.Name()))
	}
	return sr.vars.asVar(as)
}

// GhostTerm returns the term for ghost attribute name, panicking if it is
// outside the universe.
func (sr *SymRoute) GhostTerm(name string) *smt.Term {
	if t, ok := sr.ghost[name]; ok {
		return t
	}
	if !sr.u.HasGhost(name) {
		panic(fmt.Sprintf("spec: ghost attribute %q not in universe of route %q", name, sr.Name()))
	}
	return sr.vars.ghostVar(name)
}

// SetComm assigns the membership term of community c, panicking if c is
// outside the universe.
func (sr *SymRoute) SetComm(c routemodel.Community, t *smt.Term) {
	if !sr.u.HasCommunity(c) {
		panic(fmt.Sprintf("spec: community %s not in universe of route %q", c, sr.Name()))
	}
	sr.comm = memo(sr.comm, c, t)
}

// SetAS assigns the AS-presence term of as, panicking if it is outside the
// universe.
func (sr *SymRoute) SetAS(as uint32, t *smt.Term) {
	if !sr.u.HasASN(as) {
		panic(fmt.Sprintf("spec: AS %d not in universe of route %q", as, sr.Name()))
	}
	sr.as = memo(sr.as, as, t)
}

// SetGhost assigns the term of ghost attribute name, panicking if it is
// outside the universe.
func (sr *SymRoute) SetGhost(name string, t *smt.Term) {
	if !sr.u.HasGhost(name) {
		panic(fmt.Sprintf("spec: ghost attribute %q not in universe of route %q", name, sr.Name()))
	}
	sr.ghost = memo(sr.ghost, name, t)
}

// Ite returns the attribute-wise if-then-else of two symbolic routes over
// the same universe. For routes derived from the same NewSymRoute, an atom
// neither side assigned is the shared variable on both sides, and
// ite(c, v, v) is v, so only the atoms either side assigned are walked.
func Ite(cond *smt.Term, a, b *SymRoute) *SymRoute {
	if a.vars != b.vars {
		// Different variables: every atom may differ.
		a, b = a.assignAll(), b.assignAll()
	}
	ctx := a.Ctx
	return &SymRoute{
		Ctx:       ctx,
		Addr:      ctx.Ite(cond, a.Addr, b.Addr),
		PrefixLen: ctx.Ite(cond, a.PrefixLen, b.PrefixLen),
		LocalPref: ctx.Ite(cond, a.LocalPref, b.LocalPref),
		MED:       ctx.Ite(cond, a.MED, b.MED),
		NextHop:   ctx.Ite(cond, a.NextHop, b.NextHop),
		PathLen:   ctx.Ite(cond, a.PathLen, b.PathLen),
		u:         a.u,
		vars:      a.vars,
		comm:      iteAtoms(ctx, cond, a.comm, b.comm, a.vars.commVar),
		as:        iteAtoms(ctx, cond, a.as, b.as, a.vars.asVar),
		ghost:     iteAtoms(ctx, cond, a.ghost, b.ghost, a.vars.ghostVar),
	}
}

// assignAll returns a copy of sr with every atom of the universe assigned.
func (sr *SymRoute) assignAll() *SymRoute {
	c := sr.Clone()
	for _, k := range sr.u.Communities() {
		c.comm = memo(c.comm, k, sr.CommTerm(k))
	}
	for _, k := range sr.u.ASNs() {
		c.as = memo(c.as, k, sr.ASTerm(k))
	}
	for _, k := range sr.u.Ghosts() {
		c.ghost = memo(c.ghost, k, sr.GhostTerm(k))
	}
	return c
}

// iteAtoms is the if-then-else of two override maps over the same
// variables: a key missing on one side reads that side's variable.
func iteAtoms[K comparable](ctx *smt.Context, cond *smt.Term, a, b map[K]*smt.Term, variable func(K) *smt.Term) map[K]*smt.Term {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make(map[K]*smt.Term, len(a)+len(b))
	for k, t := range a {
		e, ok := b[k]
		if !ok {
			e = variable(k)
		}
		out[k] = ctx.Ite(cond, t, e)
	}
	for k, e := range b {
		if _, ok := a[k]; !ok {
			out[k] = ctx.Ite(cond, variable(k), e)
		}
	}
	return out
}

// WellFormed returns the structural validity constraint for a symbolic
// route: the prefix length is at most 32. Checks assert it so that
// counterexample models describe real IPv4 routes.
func (sr *SymRoute) WellFormed() *smt.Term {
	return sr.Ctx.Ule(sr.PrefixLen, sr.Ctx.BV(32, WidthPrefixLen))
}

// ConcreteRoute reconstructs a concrete route from a model for a SymRoute
// whose attributes are plain variables (i.e., one built by NewSymRoute).
// It is used to turn SAT models of failed checks into counterexample routes.
// A variable the model does not mention (the encoding never read it) is
// false.
func (sr *SymRoute) ConcreteRoute(m *smt.Model) *routemodel.Route {
	name := sr.Name()
	r := routemodel.NewRoute(routemodel.Prefix{
		Addr: uint32(m.BV(name + ".addr")),
		Len:  uint8(m.BV(name + ".plen")),
	})
	r.Prefix = r.Prefix.Canonical()
	r.LocalPref = uint32(m.BV(name + ".lp"))
	r.MED = uint32(m.BV(name + ".med"))
	r.NextHop = uint32(m.BV(name + ".nh"))
	for _, c := range sr.u.Communities() {
		if m.Bool(commName(name, c)) {
			r.AddCommunity(c)
		}
	}
	var path []uint32
	for _, as := range sr.u.ASNs() {
		if m.Bool(asName(name, as)) {
			path = append(path, as)
		}
	}
	// Pad to the model's path length so PathLen-sensitive predicates agree.
	// The filler must not contradict the model: repeat an AS the model
	// marks present, or, when it marks none, use one outside the universe,
	// which no filter or predicate can tell apart (universe closure).
	filler := sr.u.outsideASN()
	if len(path) > 0 {
		filler = path[len(path)-1]
	}
	for plen := int(m.BV(name + ".pathlen")); len(path) < plen; {
		path = append(path, filler)
	}
	r.ASPath = path
	for _, g := range sr.u.Ghosts() {
		if m.Bool(ghostName(name, g)) {
			r.SetGhost(g, true)
		}
	}
	return r
}

// outsideASN returns the least private AS number (64512 and up) that is not
// in the universe.
func (u *Universe) outsideASN() uint32 {
	as := uint32(64512)
	for u.HasASN(as) {
		as++
	}
	return as
}
