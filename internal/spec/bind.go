package spec

import (
	"lightyear/internal/routemodel"
	"lightyear/internal/smt"
)

// Constrain returns a formula forcing the symbolic route sr to equal the
// concrete route r, for all attributes in sr's universe. It is used to
// validate counterexamples against the symbolic encoding and by the
// concrete/symbolic agreement tests.
//
// Attributes of r outside sr's universe (e.g. a community that appears in
// neither the configurations nor the specifications) cannot be represented
// and are ignored; by the universe-closure property they cannot affect any
// check verdict.
func Constrain(sr *SymRoute, r *routemodel.Route) *smt.Term {
	ctx := sr.Ctx
	conj := []*smt.Term{
		ctx.Eq(sr.Addr, ctx.BV(uint64(r.Prefix.Addr), WidthAddr)),
		ctx.Eq(sr.PrefixLen, ctx.BV(uint64(r.Prefix.Len), WidthPrefixLen)),
		ctx.Eq(sr.LocalPref, ctx.BV(uint64(r.LocalPref), WidthLocalPref)),
		ctx.Eq(sr.MED, ctx.BV(uint64(r.MED), WidthMED)),
		ctx.Eq(sr.NextHop, ctx.BV(uint64(r.NextHop), WidthNextHop)),
		ctx.Eq(sr.PathLen, ctx.BV(uint64(len(r.ASPath)), WidthPathLen)),
	}
	for _, c := range sr.u.Communities() {
		conj = append(conj, ctx.Iff(sr.CommTerm(c), ctx.Bool(r.HasCommunity(c))))
	}
	for _, as := range sr.u.ASNs() {
		conj = append(conj, ctx.Iff(sr.ASTerm(as), ctx.Bool(r.PathContains(as))))
	}
	for _, g := range sr.u.Ghosts() {
		conj = append(conj, ctx.Iff(sr.GhostTerm(g), ctx.Bool(r.GhostValue(g))))
	}
	return ctx.And(conj...)
}
