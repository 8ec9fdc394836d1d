// Package minesweeper implements the monolithic control-plane verification
// baseline that Lightyear is compared against in §6.2 (Figure 3). Following
// Minesweeper [Beckett et al., SIGCOMM'17], it encodes the network's entire
// stable routing state as one SMT formula: a symbolic route record per
// directed edge, per-router best-route selection constraints implementing
// the BGP decision process, and import/export transfer constraints for every
// session — then asserts the negation of the property and asks the solver
// for a counterexample.
//
// As in the paper's comparison, it shares the policy IR, the symbolic route
// representation, and the SAT/SMT substrate with Lightyear, so measured
// differences come from the encodings: this one is monolithic — O(E)
// symbolic records and O(V·E) selection constraints, quadratic in routers
// for the full-mesh topology — where Lightyear's per-check formulas have
// constant size.
package minesweeper

import (
	"fmt"
	"sync/atomic"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/policy"
	"lightyear/internal/routemodel"
	"lightyear/internal/smt"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// Result is the outcome of a monolithic verification run.
type Result struct {
	// Holds reports whether the property holds in every stable routing
	// state (the negated property was unsatisfiable).
	Holds bool
	// Unknown is set when the solver exhausted its budget.
	Unknown bool
	// CounterexampleNote describes the violating stable state, if any.
	CounterexampleNote string

	NumVars    int
	NumCons    int
	EncodeTime time.Duration
	SolveTime  time.Duration
	TotalTime  time.Duration
}

// Options controls the monolithic run.
type Options struct {
	// ConflictBudget bounds SAT effort; 0 means unlimited.
	ConflictBudget int64
	// Timeout aborts solving after the given wall-clock duration
	// (approximated via conflict polling); 0 means none.
	Timeout time.Duration
}

// edgeVars is the symbolic route record on one directed edge, after the
// sender's export filter (i.e., the message on the wire), plus its validity.
type edgeVars struct {
	route *spec.SymRoute
	valid *smt.Term
}

// Verify checks a safety property (loc, pred) over all stable routing
// states of the network, for all possible external announcements of a
// single symbolic destination prefix.
func Verify(n *topology.Network, loc core.Location, pred spec.Pred, ghosts []core.GhostDef, opts Options) Result {
	t0 := time.Now()
	enc := newEncoder(n, ghosts, pred)
	enc.encodeNetwork()
	enc.assertPropertyViolation(loc, pred)
	encodeTime := time.Since(t0)

	if opts.ConflictBudget > 0 {
		enc.solver.SetConflictBudget(opts.ConflictBudget)
	}
	var interrupted atomic.Bool
	if opts.Timeout > 0 {
		timer := time.AfterFunc(opts.Timeout, func() { interrupted.Store(true) })
		defer timer.Stop()
		enc.solver.SetInterrupt(&interrupted)
	}

	ts := time.Now()
	res := enc.solver.Check()
	solveTime := time.Since(ts)

	out := Result{
		NumVars:    res.NumVars,
		NumCons:    res.NumCons,
		EncodeTime: encodeTime,
		SolveTime:  solveTime,
		TotalTime:  time.Since(t0),
	}
	switch res.Status {
	case smt.Unsat:
		out.Holds = true
	case smt.Sat:
		out.Holds = false
		out.CounterexampleNote = "found a stable routing state violating the property"
	default:
		out.Unknown = true
	}
	return out
}

type encoder struct {
	n      *topology.Network
	ghosts []core.GhostDef
	ctx    *smt.Context
	solver *smt.Solver
	u      *spec.Universe

	// onWire[e] is the message traveling on edge e (post-export at e.From,
	// pre-import at e.To).
	onWire map[topology.Edge]*edgeVars
	// best[r] is router r's selected route.
	best map[topology.NodeID]*edgeVars
	// bestFromInternal[r] marks whether r's best was learned from an iBGP
	// peer (full-mesh iBGP: such routes are not re-exported internally).
	bestFromInternal map[topology.NodeID]*smt.Term
}

func newEncoder(n *topology.Network, ghosts []core.GhostDef, pred spec.Pred) *encoder {
	ctx := smt.NewContext()
	u := n.Universe()
	pred.AddToUniverse(u)
	for _, g := range ghosts {
		u.AddGhost(g.Name)
	}
	return &encoder{
		n:                n,
		ghosts:           ghosts,
		ctx:              ctx,
		solver:           smt.NewSolver(ctx),
		u:                u,
		onWire:           make(map[topology.Edge]*edgeVars),
		best:             make(map[topology.NodeID]*edgeVars),
		bestFromInternal: make(map[topology.NodeID]*smt.Term),
	}
}

// encodeNetwork builds the stable-state constraint system.
func (enc *encoder) encodeNetwork() {
	ctx := enc.ctx

	// 1. One symbolic record per directed edge. Records from external
	// senders are fully unconstrained (any announcement); internal senders
	// get their record defined by the export constraint below.
	for _, e := range enc.n.Edges() {
		name := fmt.Sprintf("wire[%s->%s]", e.From, e.To)
		w := &edgeVars{
			route: spec.NewSymRoute(ctx, name, enc.u),
			valid: ctx.BoolVar(name + ".valid"),
		}
		enc.solver.Assert(w.route.WellFormed())
		enc.onWire[e] = w
	}

	// All messages concern one symbolic destination: equal prefixes.
	var first *spec.SymRoute
	for _, e := range enc.n.Edges() {
		w := enc.onWire[e]
		if first == nil {
			first = w.route
			continue
		}
		enc.solver.Assert(ctx.Eq(w.route.Addr, first.Addr))
		enc.solver.Assert(ctx.Eq(w.route.PrefixLen, first.PrefixLen))
	}

	// 2. Per-router best-route selection.
	for _, r := range enc.n.Routers() {
		enc.encodeSelection(r, first)
	}

	// 3. Export constraints: the on-wire record of each internal sender is
	// the export-filtered image of the sender's best route (or an
	// origination).
	for _, e := range enc.n.Edges() {
		if !enc.n.IsExternal(e.From) {
			enc.encodeExport(e)
		}
	}
}

// encodeSelection constrains best[r] to be a preference-maximal accepted
// candidate among all incoming edges, or invalid when no candidate exists.
func (enc *encoder) encodeSelection(r topology.NodeID, dst *spec.SymRoute) {
	ctx := enc.ctx
	name := fmt.Sprintf("best[%s]", r)
	best := &edgeVars{
		route: spec.NewSymRoute(ctx, name, enc.u),
		valid: ctx.BoolVar(name + ".valid"),
	}
	enc.best[r] = best
	fromInternal := ctx.BoolVar(name + ".fromInternal")
	enc.bestFromInternal[r] = fromInternal
	if dst != nil {
		enc.solver.Assert(ctx.Eq(best.route.Addr, dst.Addr))
		enc.solver.Assert(ctx.Eq(best.route.PrefixLen, dst.PrefixLen))
	}

	type candidate struct {
		route    *spec.SymRoute
		accepted *smt.Term
		internal bool
	}
	var cands []candidate
	for _, nb := range enc.n.Predecessors(r) {
		e := topology.Edge{From: nb, To: r}
		w := enc.onWire[e]
		imported, acc := enc.n.Import(e).Encode(w.route)
		imported = applyGhostActs(imported, ghostImports(enc.ghosts, e))
		cands = append(cands, candidate{
			route:    imported,
			accepted: ctx.And(w.valid, acc),
			internal: !enc.n.IsExternal(nb),
		})
	}

	if len(cands) == 0 {
		enc.solver.Assert(ctx.Not(best.valid))
		return
	}

	// best.valid iff some candidate accepted.
	anyAccepted := ctx.False()
	for _, c := range cands {
		anyAccepted = ctx.Or(anyAccepted, c.accepted)
	}
	enc.solver.Assert(ctx.Iff(best.valid, anyAccepted))

	// chosen_i: exactly one accepted candidate is chosen when valid; the
	// best record equals it; and it is weakly preferred over every
	// accepted candidate.
	var chosens []*smt.Term
	for i, c := range cands {
		chosen := ctx.BoolVar(fmt.Sprintf("%s.chosen[%d]", name, i))
		chosens = append(chosens, chosen)
		enc.solver.Assert(ctx.Implies(chosen, c.accepted))
		enc.solver.Assert(ctx.Implies(chosen, eqRoutes(ctx, best.route, c.route)))
		enc.solver.Assert(ctx.Implies(chosen, ctx.Iff(fromInternal, ctx.Bool(c.internal))))
	}
	// valid => exactly one chosen; also pairwise exclusion.
	oneOf := ctx.Or(chosens...)
	enc.solver.Assert(ctx.Implies(best.valid, oneOf))
	for i := range chosens {
		for j := i + 1; j < len(chosens); j++ {
			enc.solver.Assert(ctx.Or(ctx.Not(chosens[i]), ctx.Not(chosens[j])))
		}
	}
	// The chosen candidate must be weakly preferred over all accepted ones.
	for _, c := range cands {
		enc.solver.Assert(ctx.Implies(
			ctx.And(best.valid, c.accepted),
			prefGE(ctx, best.route, c.route),
		))
	}
}

// encodeExport constrains onWire[e] for an internal sender: it is valid iff
// the sender has a valid best route that the export filter accepts (subject
// to the iBGP re-advertisement rule), or an origination exists; the record
// equals the filtered image.
func (enc *encoder) encodeExport(e topology.Edge) {
	ctx := enc.ctx
	w := enc.onWire[e]
	best := enc.best[e.From]

	exported, acc := enc.n.Export(e).Encode(best.route)
	exported = applyGhostActs(exported, ghostExports(enc.ghosts, e))

	mayExport := ctx.And(best.valid, acc)
	// Full-mesh iBGP: internally learned best routes are not re-advertised
	// to internal peers.
	if !enc.n.IsExternal(e.To) {
		mayExport = ctx.And(mayExport, ctx.Not(enc.bestFromInternal[e.From]))
	}

	// Originations on this edge (concrete routes) provide an alternative
	// source for the wire message.
	var orig *spec.SymRoute
	origPossible := ctx.False()
	if routes := enc.n.Originate(e); len(routes) > 0 {
		// Encode the first origination concretely (sufficient for the
		// synthetic scaling workloads, which originate at most one route
		// per edge).
		orig = concreteToSym(ctx, enc.u, routes[0], e, enc.ghosts)
		origPossible = ctx.True()
	}

	// Monotone hop count breaks circularly self-supporting routes: the
	// wire message is one hop longer than the exported image (the image
	// already reflects any prepend actions in the export map).
	bumped := exported.Clone()
	bumped.PathLen = ctx.Add(exported.PathLen, ctx.BV(1, spec.WidthPathLen))

	// Wire validity: exported best, or origination.
	enc.solver.Assert(ctx.Iff(w.valid, ctx.Or(mayExport, origPossible)))
	// When the export path is taken, the wire equals the filtered image;
	// the export path takes precedence over origination when both hold.
	enc.solver.Assert(ctx.Implies(mayExport, eqRoutes(ctx, w.route, bumped)))
	if orig != nil {
		enc.solver.Assert(ctx.Implies(ctx.And(origPossible, ctx.Not(mayExport)), eqRoutes(ctx, w.route, orig)))
	}
}

// assertPropertyViolation asserts the negation of the property at loc.
func (enc *encoder) assertPropertyViolation(loc core.Location, pred spec.Pred) {
	ctx := enc.ctx
	if loc.IsEdge() {
		w := enc.onWire[loc.Edge()]
		if w == nil {
			panic(fmt.Sprintf("minesweeper: property edge %v not in topology", loc.Edge()))
		}
		enc.solver.Assert(ctx.And(w.valid, ctx.Not(pred.Compile(w.route))))
		return
	}
	b := enc.best[loc.Router()]
	if b == nil {
		panic(fmt.Sprintf("minesweeper: property router %v not in topology", loc.Router()))
	}
	enc.solver.Assert(ctx.And(b.valid, ctx.Not(pred.Compile(b.route))))
}

// eqRoutes equates every attribute of two symbolic routes.
func eqRoutes(ctx *smt.Context, a, b *spec.SymRoute) *smt.Term {
	conj := []*smt.Term{
		ctx.Eq(a.Addr, b.Addr),
		ctx.Eq(a.PrefixLen, b.PrefixLen),
		ctx.Eq(a.LocalPref, b.LocalPref),
		ctx.Eq(a.MED, b.MED),
		ctx.Eq(a.NextHop, b.NextHop),
		ctx.Eq(a.PathLen, b.PathLen),
	}
	u := a.Universe()
	for _, c := range u.Communities() {
		conj = append(conj, ctx.Iff(a.CommTerm(c), b.CommTerm(c)))
	}
	for _, as := range u.ASNs() {
		conj = append(conj, ctx.Iff(a.ASTerm(as), b.ASTerm(as)))
	}
	for _, g := range u.Ghosts() {
		conj = append(conj, ctx.Iff(a.GhostTerm(g), b.GhostTerm(g)))
	}
	return ctx.And(conj...)
}

// prefGE encodes "a is weakly preferred over b" per the BGP decision
// process of routemodel.Prefer.
func prefGE(ctx *smt.Context, a, b *spec.SymRoute) *smt.Term {
	lpGT := ctx.Ugt(a.LocalPref, b.LocalPref)
	lpEQ := ctx.Eq(a.LocalPref, b.LocalPref)
	plLT := ctx.Ult(a.PathLen, b.PathLen)
	plEQ := ctx.Eq(a.PathLen, b.PathLen)
	medLT := ctx.Ult(a.MED, b.MED)
	medEQ := ctx.Eq(a.MED, b.MED)
	nhLE := ctx.Ule(a.NextHop, b.NextHop)
	return ctx.Or(
		lpGT,
		ctx.And(lpEQ, plLT),
		ctx.And(lpEQ, plEQ, medLT),
		ctx.And(lpEQ, plEQ, medEQ, nhLE),
	)
}

func applyGhostActs(sr *spec.SymRoute, acts []policy.Action) *spec.SymRoute {
	if len(acts) == 0 {
		return sr
	}
	out := sr.Clone()
	for _, a := range acts {
		a.ApplySym(out)
	}
	return out
}

// concreteToSym lifts a concrete originated route into a symbolic record
// (with origination-time ghost values).
func concreteToSym(ctx *smt.Context, u *spec.Universe, r *routemodel.Route, e topology.Edge, ghosts []core.GhostDef) *spec.SymRoute {
	sr := spec.NewSymRoute(ctx, fmt.Sprintf("orig[%s->%s]", e.From, e.To), u)
	out := sr.Clone()
	out.Addr = ctx.BV(uint64(r.Prefix.Addr), spec.WidthAddr)
	out.PrefixLen = ctx.BV(uint64(r.Prefix.Len), spec.WidthPrefixLen)
	out.LocalPref = ctx.BV(uint64(r.LocalPref), spec.WidthLocalPref)
	out.MED = ctx.BV(uint64(r.MED), spec.WidthMED)
	out.NextHop = ctx.BV(uint64(r.NextHop), spec.WidthNextHop)
	out.PathLen = ctx.BV(uint64(len(r.ASPath)), spec.WidthPathLen)
	for _, c := range u.Communities() {
		out.SetComm(c, ctx.Bool(r.HasCommunity(c)))
	}
	for _, as := range u.ASNs() {
		out.SetAS(as, ctx.Bool(r.PathContains(as)))
	}
	for _, g := range u.Ghosts() {
		v := false
		for _, gd := range ghosts {
			if gd.Name == g && gd.OnOriginate != nil {
				v = gd.OnOriginate(e)
			}
		}
		out.SetGhost(g, ctx.Bool(v))
	}
	return out
}

func ghostImports(ghosts []core.GhostDef, e topology.Edge) []policy.Action {
	var out []policy.Action
	for _, g := range ghosts {
		if g.OnImport == nil {
			continue
		}
		if v, set := g.OnImport(e); set {
			out = append(out, policy.SetGhost{Name: g.Name, Value: v})
		}
	}
	return out
}

func ghostExports(ghosts []core.GhostDef, e topology.Edge) []policy.Action {
	var out []policy.Action
	for _, g := range ghosts {
		if g.OnExport == nil {
			continue
		}
		if v, set := g.OnExport(e); set {
			out = append(out, policy.SetGhost{Name: g.Name, Value: v})
		}
	}
	return out
}
