package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"lightyear/internal/routemodel"
	"lightyear/internal/smt"
	"lightyear/internal/spec"
)

var (
	c100_1 = routemodel.MustCommunity("100:1")
	c100_2 = routemodel.MustCommunity("100:2")
	c200_1 = routemodel.MustCommunity("200:1")
)

func testUniverse() *spec.Universe {
	u := spec.NewUniverse()
	u.AddCommunity(c100_1)
	u.AddCommunity(c100_2)
	u.AddCommunity(c200_1)
	u.AddASN(65001)
	u.AddASN(174)
	u.AddGhost("FromISP1")
	return u
}

func TestNilMapPermitsUnchanged(t *testing.T) {
	var m *RouteMap
	r := routemodel.NewRoute(routemodel.MustPrefix("10.0.0.0/24"))
	r.AddCommunity(c100_1)
	out, ok := m.Apply(r)
	if !ok {
		t.Fatal("nil map must permit")
	}
	if !out.Equal(r) {
		t.Fatal("nil map must not transform")
	}
	if out == r {
		t.Fatal("Apply must clone")
	}
}

func TestPermitAllDenyAll(t *testing.T) {
	r := routemodel.NewRoute(routemodel.MustPrefix("10.0.0.0/24"))
	if _, ok := PermitAll("p").Apply(r); !ok {
		t.Fatal("PermitAll denied")
	}
	if _, ok := DenyAll("d").Apply(r); ok {
		t.Fatal("DenyAll permitted")
	}
}

func TestFirstMatchWins(t *testing.T) {
	m := &RouteMap{
		Name: "m",
		Clauses: []Clause{
			{Seq: 10, Matches: []spec.Pred{spec.HasCommunity(c100_1)}, Permit: false},
			{Seq: 20, Matches: nil, Actions: []Action{SetLocalPref{200}}, Permit: true},
		},
	}
	tagged := routemodel.NewRoute(routemodel.MustPrefix("10.0.0.0/24"))
	tagged.AddCommunity(c100_1)
	if _, ok := m.Apply(tagged); ok {
		t.Fatal("first clause should deny tagged route")
	}
	plain := routemodel.NewRoute(routemodel.MustPrefix("10.0.0.0/24"))
	out, ok := m.Apply(plain)
	if !ok || out.LocalPref != 200 {
		t.Fatalf("second clause should permit with lp=200, got %v %v", out, ok)
	}
}

func TestDefaultDeny(t *testing.T) {
	m := &RouteMap{
		Name: "m",
		Clauses: []Clause{
			{Seq: 10, Matches: []spec.Pred{spec.HasCommunity(c100_1)}, Permit: true},
		},
	}
	plain := routemodel.NewRoute(routemodel.MustPrefix("10.0.0.0/24"))
	if _, ok := m.Apply(plain); ok {
		t.Fatal("unmatched route must hit default deny")
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	m := &RouteMap{
		Name: "m",
		Clauses: []Clause{
			{Seq: 10, Actions: []Action{AddCommunity{c200_1}, SetLocalPref{50}, ClearCommunities{}}, Permit: true},
		},
	}
	r := routemodel.NewRoute(routemodel.MustPrefix("10.0.0.0/24"))
	r.AddCommunity(c100_1)
	m.Apply(r)
	if !r.HasCommunity(c100_1) || r.LocalPref != 100 {
		t.Fatal("input route was mutated")
	}
}

func TestActions(t *testing.T) {
	r := routemodel.NewRoute(routemodel.MustPrefix("10.0.0.0/24"))
	r.AddCommunity(c100_1)

	SetLocalPref{250}.Apply(r)
	SetMED{30}.Apply(r)
	SetNextHop{9}.Apply(r)
	AddCommunity{c200_1}.Apply(r)
	DeleteCommunity{c100_1}.Apply(r)
	SetGhost{"FromISP1", true}.Apply(r)
	PrependAS{65001, 2}.Apply(r)

	if r.LocalPref != 250 || r.MED != 30 || r.NextHop != 9 {
		t.Fatalf("scalar actions: %v", r)
	}
	if r.HasCommunity(c100_1) || !r.HasCommunity(c200_1) {
		t.Fatalf("community actions: %v", r)
	}
	if !r.GhostValue("FromISP1") {
		t.Fatal("ghost action")
	}
	if len(r.ASPath) != 2 || r.ASPath[0] != 65001 {
		t.Fatalf("prepend: %v", r.ASPath)
	}
	ClearCommunities{}.Apply(r)
	if r.HasCommunity(c200_1) {
		t.Fatal("clear communities")
	}
}

// observation is what encodeAndSolve reads off the symbolic output route.
type observation struct {
	accepted               bool
	lp, med, plen, pathlen uint64
	comm                   map[routemodel.Community]bool
	as                     map[uint32]bool
	ghost                  map[string]bool
}

// encodeAndSolve runs the symbolic semantics on a concrete input by
// constraining the input route and reading every output attribute — each
// community, AS and ghost atom of the universe included — from the model.
func encodeAndSolve(t testing.TB, m *RouteMap, in *routemodel.Route, u *spec.Universe) observation {
	t.Helper()
	ctx := smt.NewContext()
	sr := spec.NewSymRoute(ctx, "in", u)
	out, acc := m.Encode(sr)

	s := smt.NewSolver(ctx)
	s.Assert(spec.Constrain(sr, in))
	// Bind output attributes to fresh observation variables so we can read
	// them from the model.
	s.Assert(ctx.Eq(ctx.BVVar("obs.lp", spec.WidthLocalPref), out.LocalPref))
	s.Assert(ctx.Eq(ctx.BVVar("obs.med", spec.WidthMED), out.MED))
	s.Assert(ctx.Eq(ctx.BVVar("obs.plen", spec.WidthPrefixLen), out.PrefixLen))
	s.Assert(ctx.Eq(ctx.BVVar("obs.pathlen", spec.WidthPathLen), out.PathLen))
	s.Assert(ctx.Iff(ctx.BoolVar("obs.acc"), acc))
	for _, c := range u.Communities() {
		s.Assert(ctx.Iff(ctx.BoolVar("obs.comm."+c.String()), out.CommTerm(c)))
	}
	for _, as := range u.ASNs() {
		s.Assert(ctx.Iff(ctx.BoolVar(fmt.Sprintf("obs.as.%d", as)), out.ASTerm(as)))
	}
	for _, g := range u.Ghosts() {
		s.Assert(ctx.Iff(ctx.BoolVar("obs.ghost."+g), out.GhostTerm(g)))
	}
	res := s.Check()
	if res.Status != smt.Sat {
		t.Fatalf("symbolic execution unsat for input %v", in)
	}
	obs := observation{
		accepted: res.Model.Bool("obs.acc"),
		lp:       res.Model.BV("obs.lp"),
		med:      res.Model.BV("obs.med"),
		plen:     res.Model.BV("obs.plen"),
		pathlen:  res.Model.BV("obs.pathlen"),
		comm:     map[routemodel.Community]bool{},
		as:       map[uint32]bool{},
		ghost:    map[string]bool{},
	}
	for _, c := range u.Communities() {
		obs.comm[c] = res.Model.Bool("obs.comm." + c.String())
	}
	for _, as := range u.ASNs() {
		obs.as[as] = res.Model.Bool(fmt.Sprintf("obs.as.%d", as))
	}
	for _, g := range u.Ghosts() {
		obs.ghost[g] = res.Model.Bool("obs.ghost." + g)
	}
	return obs
}

// randomRouteMap builds a random but well-formed route map over the test
// universe.
func randomRouteMap(rng *rand.Rand) *RouteMap {
	comms := []routemodel.Community{c100_1, c100_2, c200_1}
	randMatch := func() spec.Pred {
		switch rng.Intn(5) {
		case 0:
			return spec.HasCommunity(comms[rng.Intn(len(comms))])
		case 1:
			return spec.Not(spec.HasCommunity(comms[rng.Intn(len(comms))]))
		case 2:
			s := &routemodel.PrefixSet{}
			s.AddRange(routemodel.MustPrefix("10.0.0.0/8"), 8, 24)
			return spec.PrefixIn(s)
		case 3:
			return spec.PathContains(174)
		default:
			return spec.Ghost("FromISP1")
		}
	}
	randAction := func() Action {
		switch rng.Intn(7) {
		case 0:
			return SetLocalPref{uint32(rng.Intn(1000))}
		case 1:
			return SetMED{uint32(rng.Intn(1000))}
		case 2:
			return AddCommunity{comms[rng.Intn(len(comms))]}
		case 3:
			return DeleteCommunity{comms[rng.Intn(len(comms))]}
		case 4:
			return ClearCommunities{}
		case 5:
			return PrependAS{65001, 1 + rng.Intn(2)}
		default:
			return SetGhost{"FromISP1", rng.Intn(2) == 0}
		}
	}
	m := &RouteMap{Name: "rand", DefaultPermit: rng.Intn(2) == 0}
	for i := 0; i < 1+rng.Intn(4); i++ {
		c := Clause{Seq: (i + 1) * 10, Permit: rng.Intn(3) != 0}
		for j := rng.Intn(3); j > 0; j-- {
			c.Matches = append(c.Matches, randMatch())
		}
		if c.Permit {
			for j := rng.Intn(3); j > 0; j-- {
				c.Actions = append(c.Actions, randAction())
			}
		}
		m.Clauses = append(m.Clauses, c)
	}
	return m
}

func randomRoute(rng *rand.Rand) *routemodel.Route {
	prefixes := []string{"10.0.0.0/8", "10.1.0.0/16", "10.2.3.0/24", "192.168.1.0/24", "8.8.0.0/16"}
	r := routemodel.NewRoute(routemodel.MustPrefix(prefixes[rng.Intn(len(prefixes))]))
	r.LocalPref = uint32(rng.Intn(1000))
	r.MED = uint32(rng.Intn(1000))
	r.NextHop = uint32(rng.Intn(100))
	for _, c := range []routemodel.Community{c100_1, c100_2, c200_1} {
		if rng.Intn(2) == 0 {
			r.AddCommunity(c)
		}
	}
	if rng.Intn(2) == 0 {
		r.ASPath = append(r.ASPath, 174)
	}
	if rng.Intn(2) == 0 {
		r.ASPath = append(r.ASPath, 65001)
	}
	if rng.Intn(2) == 0 {
		r.SetGhost("FromISP1", true)
	}
	return r
}

// agree reports how Encode's symbolic execution of m on in disagrees with
// Apply: acceptance, every scalar attribute, and every community, AS and
// ghost atom of u. It returns "" when they agree.
func agree(t testing.TB, m *RouteMap, in *routemodel.Route, u *spec.Universe) string {
	wantOut, wantOK := m.Apply(in)
	got := encodeAndSolve(t, m, in, u)
	if got.accepted != wantOK {
		return fmt.Sprintf("acceptance mismatch concrete=%v symbolic=%v", wantOK, got.accepted)
	}
	if !wantOK {
		return ""
	}
	switch {
	case uint32(got.lp) != wantOut.LocalPref:
		return fmt.Sprintf("lp mismatch %d vs %d", got.lp, wantOut.LocalPref)
	case uint32(got.med) != wantOut.MED:
		return fmt.Sprintf("med mismatch %d vs %d", got.med, wantOut.MED)
	case uint8(got.plen) != wantOut.Prefix.Len:
		return "prefix len mismatch"
	case int(got.pathlen) != len(wantOut.ASPath):
		return fmt.Sprintf("path length mismatch %d vs %d", got.pathlen, len(wantOut.ASPath))
	}
	for c, v := range got.comm {
		if v != wantOut.HasCommunity(c) {
			return fmt.Sprintf("community %s mismatch sym=%v concrete=%v", c, v, wantOut.HasCommunity(c))
		}
	}
	for as, v := range got.as {
		if v != wantOut.PathContains(as) {
			return fmt.Sprintf("AS %d presence mismatch sym=%v concrete=%v", as, v, wantOut.PathContains(as))
		}
	}
	for g, v := range got.ghost {
		if v != wantOut.GhostValue(g) {
			return fmt.Sprintf("ghost %s mismatch sym=%v concrete=%v", g, v, wantOut.GhostValue(g))
		}
	}
	return ""
}

// TestConcreteSymbolicAgreement is the central soundness property for route
// maps: Apply and Encode must agree on acceptance and on every transformed
// attribute, for random maps and random routes.
func TestConcreteSymbolicAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	u := testUniverse()
	for iter := 0; iter < 60; iter++ {
		m := randomRouteMap(rng)
		in := randomRoute(rng)
		if msg := agree(t, m, in, u); msg != "" {
			t.Fatalf("iter %d: %s\nmap:\n%s\nroute: %v", iter, msg, m, in)
		}
	}
}

// FuzzRouteMapAgreement is TestConcreteSymbolicAgreement with the random
// map and route drawn from a fuzzed seed.
func FuzzRouteMapAgreement(f *testing.F) {
	for _, seed := range []int64{0, 1, 31, 1 << 40} {
		f.Add(seed)
	}
	u := testUniverse()
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		m := randomRouteMap(rng)
		in := randomRoute(rng)
		if msg := agree(t, m, in, u); msg != "" {
			t.Fatalf("seed %d: %s\nmap:\n%s\nroute: %v", seed, msg, m, in)
		}
	})
}

func TestEncodeAcceptanceFormula(t *testing.T) {
	// A map that denies routes with 100:1 and permits the rest must yield an
	// acceptance formula equivalent to "not has(100:1)".
	m := &RouteMap{
		Name: "no-transit",
		Clauses: []Clause{
			{Seq: 10, Matches: []spec.Pred{spec.HasCommunity(c100_1)}, Permit: false},
			{Seq: 20, Permit: true},
		},
	}
	ctx := smt.NewContext()
	u := testUniverse()
	sr := spec.NewSymRoute(ctx, "r", u)
	_, acc := m.Encode(sr)
	// acc and not(has 100:1) differ nowhere: their disagreement is unsat.
	diff := ctx.Not(ctx.Iff(acc, ctx.Not(sr.CommTerm(c100_1))))
	if res := smt.Solve(ctx, diff); res.Status != smt.Unsat {
		t.Fatalf("acceptance formula not equivalent: %v", res.Status)
	}
}

func TestRouteMapString(t *testing.T) {
	m := &RouteMap{
		Name: "m",
		Clauses: []Clause{
			{Seq: 10, Matches: []spec.Pred{spec.HasCommunity(c100_1)}, Actions: []Action{SetLocalPref{10}}, Permit: true},
			{Seq: 20, Permit: false},
		},
	}
	if m.String() == "" || (*RouteMap)(nil).String() == "" {
		t.Fatal("String rendering")
	}
	for _, a := range []Action{SetLocalPref{1}, SetMED{1}, SetNextHop{1}, AddCommunity{c100_1}, DeleteCommunity{c100_1}, ClearCommunities{}, PrependAS{1, 1}, SetGhost{"g", true}} {
		if a.String() == "" {
			t.Fatal("action String")
		}
	}
}

func TestAddToUniverse(t *testing.T) {
	m := &RouteMap{
		Name: "m",
		Clauses: []Clause{
			{Seq: 10, Matches: []spec.Pred{spec.HasCommunity(c100_1)}, Actions: []Action{AddCommunity{c200_1}, SetGhost{"G", true}, PrependAS{65009, 1}}, Permit: true},
		},
	}
	u := spec.NewUniverse()
	m.AddToUniverse(u)
	if !u.HasCommunity(c100_1) || !u.HasCommunity(c200_1) {
		t.Fatal("communities not collected")
	}
	if len(u.Ghosts()) != 1 || len(u.ASNs()) != 1 {
		t.Fatal("ghost/ASN not collected")
	}
	var nilMap *RouteMap
	nilMap.AddToUniverse(u) // must not panic
}
