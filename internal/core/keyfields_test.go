package core

import (
	"testing"

	"lightyear/internal/policy"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// Key soundness, the internal half: two obligations that differ in any
// verdict-relevant field must have different keys, and two that differ only
// in where they sit must share one. Each case below is one field of the base
// import check, mutated alone.

var (
	commA = routemodel.MustCommunity("100:1")
	commB = routemodel.MustCommunity("100:2")
)

func prefixes(p string, ge, le uint8) *routemodel.PrefixSet {
	s := &routemodel.PrefixSet{}
	s.AddRange(routemodel.MustPrefix(p), ge, le)
	return s
}

// fields is everything the import check at A -> B is built from.
type fields struct {
	m         *policy.RouteMap
	pre, post spec.Pred
	ghost     GhostDef
	to        topology.NodeID
}

func baseFields() fields {
	return fields{
		m: &policy.RouteMap{Name: "m", Clauses: []policy.Clause{
			{Seq: 10, Matches: []spec.Pred{spec.HasCommunity(commA)}, Actions: []policy.Action{policy.SetLocalPref{Value: 100}}, Permit: true},
			{Seq: 20, Permit: false},
		}},
		pre:   spec.HasCommunity(commA),
		post:  spec.Ghost("G"),
		ghost: GhostDef{Name: "G", OnImport: func(topology.Edge) (bool, bool) { return true, true }},
		to:    "B",
	}
}

// importKey builds the two-router problem the fields describe and returns
// the key of its import check on A -> f.to.
func importKey(t *testing.T, f fields) string {
	t.Helper()
	n := topology.New()
	n.AddRouter("A", 1)
	n.AddRouter(f.to, 1)
	e := n.AddEdge("A", f.to)
	n.SetImport(e, f.m)
	inv := NewInvariants(spec.True()).SetEdge(e, f.pre).SetRouter(f.to, f.post)
	p := &SafetyProblem{Network: n, Property: Property{Loc: AtRouter(f.to), Pred: spec.True()},
		Invariants: inv, Ghosts: []GhostDef{f.ghost}}
	for _, c := range p.Checks(Options{}) {
		if c.Kind == ImportCheck {
			return c.Key()
		}
	}
	t.Fatal("no import check generated")
	return ""
}

func TestKeyChangesWithEveryVerdictRelevantField(t *testing.T) {
	base := importKey(t, baseFields())
	if again := importKey(t, baseFields()); again != base {
		t.Fatal("equal content in fresh objects must produce equal keys")
	}
	clause := func(edit func(*policy.Clause)) func(*fields) {
		return func(f *fields) { edit(&f.m.Clauses[0]) }
	}
	// The location is no verdict-relevant field: the same filter, ghost
	// updates and invariants on another session pose the same formula.
	moved := baseFields()
	moved.to = "C"
	if k := importKey(t, moved); k != base {
		t.Errorf("location: key %s, want the base key %s", k, base)
	}
	mutations := map[string]func(*fields){
		"map: nil":            func(f *fields) { f.m = nil },
		"map: default permit": func(f *fields) { f.m.DefaultPermit = true },
		"map: clause dropped": func(f *fields) { f.m.Clauses = f.m.Clauses[:1] },
		"map: clause order":   func(f *fields) { f.m.Clauses[0], f.m.Clauses[1] = f.m.Clauses[1], f.m.Clauses[0] },
		"clause: seq":         clause(func(c *policy.Clause) { c.Seq = 11 }),
		"clause: permit":      clause(func(c *policy.Clause) { c.Permit = false }),
		"clause: match":       clause(func(c *policy.Clause) { c.Matches = []spec.Pred{spec.HasCommunity(commB)} }),
		"clause: no match":    clause(func(c *policy.Clause) { c.Matches = nil }),
		"clause: action":      clause(func(c *policy.Clause) { c.Actions = []policy.Action{policy.SetLocalPref{Value: 101}} }),
		"clause: no action":   clause(func(c *policy.Clause) { c.Actions = nil }),
		"clause: extra action": clause(func(c *policy.Clause) {
			c.Actions = append(c.Actions, policy.AddCommunity{Comm: commB})
		}),
		"pre":          func(f *fields) { f.pre = spec.HasCommunity(commB) },
		"post":         func(f *fields) { f.post = spec.Not(spec.Ghost("G")) },
		"pre and post": func(f *fields) { f.pre, f.post = f.post, f.pre },
		"ghost: name":  func(f *fields) { f.ghost.Name = "H"; f.post = spec.Ghost("G") },
		"ghost: value": func(f *fields) { f.ghost.OnImport = func(topology.Edge) (bool, bool) { return false, true } },
		"ghost: unset": func(f *fields) { f.ghost.OnImport = nil },
	}
	seen := map[string]string{base: "base"}
	for name, mutate := range mutations {
		f := baseFields()
		mutate(&f)
		k := importKey(t, f)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: same key as %s", name, prev)
		}
		seen[k] = name
	}

	// Every action and every node of the predicate union, one parameter at a
	// time: as the clause's action, and as the post-condition.
	actions := [][2]policy.Action{
		{policy.SetLocalPref{Value: 1}, policy.SetLocalPref{Value: 2}},
		{policy.SetMED{Value: 1}, policy.SetMED{Value: 2}},
		{policy.SetNextHop{Value: 1}, policy.SetNextHop{Value: 2}},
		{policy.AddCommunity{Comm: commA}, policy.AddCommunity{Comm: commB}},
		{policy.DeleteCommunity{Comm: commA}, policy.DeleteCommunity{Comm: commB}},
		{policy.ClearCommunities{}, policy.DeleteCommunity{Comm: commA}},
		{policy.PrependAS{AS: 1, Count: 1}, policy.PrependAS{AS: 2, Count: 1}},
		{policy.PrependAS{AS: 1, Count: 1}, policy.PrependAS{AS: 1, Count: 2}},
		{policy.SetLocalPref{Value: 1}, policy.SetMED{Value: 1}},
	}
	for _, pair := range actions {
		var k [2]string
		for i, a := range pair {
			f := baseFields()
			f.m.Clauses[0].Actions = []policy.Action{a}
			k[i] = importKey(t, f)
		}
		if k[0] == k[1] {
			t.Errorf("actions %q and %q share a key", pair[0], pair[1])
		}
	}
	a, b := spec.HasCommunity(commA), spec.HasCommunity(commB)
	preds := [][2]spec.Pred{
		{spec.True(), spec.False()},
		{spec.Not(a), spec.Not(b)},
		{spec.Not(a), a},
		{spec.And(a, b), spec.And(a)},
		{spec.And(a, b), spec.Or(a, b)},
		{spec.Or(a, b), spec.Or(b)},
		{spec.Implies(a, b), spec.Implies(b, a)},
		{spec.PrefixIn(prefixes("10.0.0.0/8", 8, 24)), spec.PrefixIn(prefixes("10.0.0.0/8", 8, 25))},
		{spec.PrefixIn(prefixes("10.0.0.0/8", 8, 24)), spec.PrefixIn(prefixes("10.0.0.0/8", 9, 24))},
		{spec.PrefixIn(prefixes("10.0.0.0/8", 8, 24)), spec.PrefixIn(prefixes("11.0.0.0/8", 8, 24))},
		{spec.PrefixEquals(routemodel.MustPrefix("10.0.0.0/8")), spec.PrefixEquals(routemodel.MustPrefix("10.0.0.0/9"))},
		{spec.PrefixLenAtMost(24), spec.PrefixLenAtMost(25)},
		{spec.PrefixLenAtMost(24), spec.PrefixLenAtLeast(24)},
		{spec.LocalPrefEquals(1), spec.LocalPrefEquals(2)},
		{spec.LocalPrefEquals(1), spec.LocalPrefAtLeast(1)},
		{spec.LocalPrefAtLeast(1), spec.LocalPrefAtMost(1)},
		{spec.MEDEquals(1), spec.MEDEquals(2)},
		{spec.MEDEquals(1), spec.MEDAtMost(1)},
		{spec.MEDEquals(1), spec.LocalPrefEquals(1)},
		{spec.Ghost("G"), spec.Ghost("H")},
		{spec.PathContains(1), spec.PathContains(2)},
		{spec.PathLenAtMost(1), spec.PathLenAtMost(2)},
		{spec.NextHopEquals(1), spec.NextHopEquals(2)},
		{spec.Named("n1", a), spec.Named("n2", a)},
	}
	for _, pair := range preds {
		var k [2]string
		for i, p := range pair {
			f := baseFields()
			f.post = spec.And(spec.Ghost("G"), p) // keeps ghost G in the universe
			k[i] = importKey(t, f)
		}
		if k[0] == k[1] {
			t.Errorf("predicates %q and %q share a key", pair[0], pair[1])
		}
	}

	// Polarity: the same filter content as a safety check and as a
	// propagation obligation.
	pre, post := &predicate{pred: a}, &predicate{pred: b}
	var mFP spec.Fingerprint
	safety := filterCheck(ImportCheck, topology.Edge{From: "A", To: "B"}, filterObligation{importSide: true}, mFP, ghostSet{}, pre, post)
	must := filterCheck(ImportCheck, topology.Edge{From: "A", To: "B"}, filterObligation{importSide: true, mustAccept: true}, mFP, ghostSet{}, pre, post)
	export := filterCheck(ExportCheck, topology.Edge{From: "A", To: "B"}, filterObligation{}, mFP, ghostSet{}, pre, post)
	if safety.Key() == must.Key() || safety.Key() == export.Key() {
		t.Error("polarity or kind does not reach the key")
	}
}

// BenchmarkKeyComposition is one filter check's key: a SHA-256 over the kind,
// the polarity and four 16-byte fingerprints.
func BenchmarkKeyComposition(b *testing.B) {
	fps := [4]spec.Fingerprint{spec.Sum("m"), spec.Sum("ghosts"), spec.Sum("pre"), spec.Sum("post")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if composeKey(ImportCheck, false, fps[0], fps[1], fps[2], fps[3]) == "" {
			b.Fatal("empty key")
		}
	}
}

// TestOriginateKeyCoversOriginationValues: an originate check reads each
// ghost's value on the originated routes, not only the ghost names. Two
// waypoint ghosts of one name that disagree on whether R1 is the waypoint
// give R1's originated routes different values at R1 -> R2, so the checks
// decide differently and must not share a key.
func TestOriginateKeyCoversOriginationValues(t *testing.T) {
	n := topology.New()
	for _, id := range []topology.NodeID{"R1", "R2", "R3"} {
		n.AddRouter(id, 65000)
	}
	n.AddPeering("R1", "R2")
	n.AddPeering("R1", "R3")
	e := topology.Edge{From: "R1", To: "R2"}
	n.AddOriginate(e, routemodel.NewRoute(routemodel.MustPrefix("10.0.0.0/8")))

	originate := func(waypoint topology.NodeID) Check {
		inv := NewInvariants(spec.True()).SetEdge(e, spec.Ghost("Via"))
		p := &SafetyProblem{Network: n, Property: Property{Loc: AtRouter("R2"), Pred: spec.True()},
			Invariants: inv, Ghosts: []GhostDef{GhostWaypoint("Via", n, waypoint)}}
		for _, c := range p.Checks(Options{}) {
			if c.Kind == OriginateCheck && c.Loc == AtEdge(e) {
				return c
			}
		}
		t.Fatal("no originate check at R1 -> R2")
		return Check{}
	}
	viaR1, viaR3 := originate("R1"), originate("R3")
	if !viaR1.Run().OK || viaR3.Run().OK {
		t.Fatalf("verdicts: waypoint R1 ok=%v, waypoint R3 ok=%v; want true, false", viaR1.Run().OK, viaR3.Run().OK)
	}
	if viaR1.Key() == viaR3.Key() {
		t.Fatalf("checks that decide differently share the key %s", viaR1.Key())
	}
	if again := originate("R1"); again.Key() != viaR1.Key() {
		t.Fatal("equal origination values in fresh objects must produce equal keys")
	}
}
