package core

import (
	"reflect"
	"testing"

	"lightyear/internal/policy"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// frameNet is three routers in a line with an external peer and one
// originated route: every kind of check, and ghosts on every hook.
func frameNet() *topology.Network {
	n := topology.New()
	for _, id := range []topology.NodeID{"R1", "R2", "R3"} {
		n.AddRouter(id, 65000)
	}
	n.AddExternal("P", 100)
	n.AddPeering("P", "R1")
	n.AddPeering("R1", "R2")
	n.AddPeering("R2", "R3")
	n.AddOriginate(topology.Edge{From: "R2", To: "R3"}, routemodel.NewRoute(routemodel.MustPrefix("10.0.0.0/8")))
	return n
}

type frameFields struct {
	loc      Location
	pred     spec.Pred
	def      spec.Pred
	explicit map[Location]spec.Pred
	ghosts   []GhostDef
}

func frameProblem(n *topology.Network, f frameFields) *SafetyProblem {
	inv := NewInvariants(f.def)
	for loc, p := range f.explicit {
		inv.Set(loc, p)
	}
	return &SafetyProblem{Network: n, Property: Property{Loc: f.loc, Pred: f.pred}, Invariants: inv, Ghosts: f.ghosts}
}

func baseFrame(n *topology.Network) frameFields {
	return frameFields{
		loc:  AtRouter("R3"),
		pred: spec.Ghost("Via"),
		def:  spec.True(),
		explicit: map[Location]spec.Pred{
			AtRouter("R3"): spec.Ghost("Via"),
			AtEdge(topology.Edge{From: "R2", To: "R3"}): spec.Ghost("Via"),
		},
		ghosts: []GhostDef{GhostWaypoint("Via", n, "R2")},
	}
}

// TestFrameCoversEveryKeyInputButPolicies: the frame digest moves with every
// input of an edge check's key except the per-edge policy fingerprints, and
// does not move with those or with the property's location.
func TestFrameCoversEveryKeyInputButPolicies(t *testing.T) {
	n := frameNet()
	base := frameProblem(n, baseFrame(n)).Frame()
	if again := frameProblem(n, baseFrame(n)).Frame(); again != base {
		t.Fatal("equal problems in fresh objects must have equal frames")
	}
	e12 := topology.Edge{From: "R1", To: "R2"}
	mutations := map[string]func(*frameFields){
		"property predicate": func(f *frameFields) { f.pred = spec.Not(spec.Ghost("Via")) },
		"default invariant":  func(f *frameFields) { f.def = spec.Ghost("Via") },
		"explicit entry":     func(f *frameFields) { f.explicit[AtRouter("R3")] = spec.True() },
		"explicit location": func(f *frameFields) {
			delete(f.explicit, AtRouter("R3"))
			f.explicit[AtRouter("R2")] = spec.Ghost("Via")
		},
		"ghost name": func(f *frameFields) { f.ghosts[0].Name = "Other" },
		"import ghost update": func(f *frameFields) {
			f.ghosts[0].OnImport = func(e topology.Edge) (bool, bool) { return e == e12, e == e12 }
		},
		"export ghost update": func(f *frameFields) { f.ghosts[0].OnExport = nil },
		"origination value": func(f *frameFields) {
			f.ghosts[0].OnOriginate = func(topology.Edge) bool { return false }
		},
	}
	seen := map[spec.Fingerprint]string{base: "base"}
	for name, mutate := range mutations {
		f := baseFrame(n)
		mutate(&f)
		fr := frameProblem(n, f).Frame()
		if prev, dup := seen[fr]; dup {
			t.Errorf("%s: same frame as %s", name, prev)
		}
		seen[fr] = name
	}

	// Policies are not in the frame: the per-edge fingerprints carry them.
	edited := frameNet()
	edited.SetImport(e12, policy.DenyAll("r2-import"))
	edited.SetExport(e12, policy.DenyAll("r1-export"))
	edited.AddOriginate(topology.Edge{From: "R2", To: "R3"}, routemodel.NewRoute(routemodel.MustPrefix("11.0.0.0/8")))
	if frameProblem(edited, baseFrame(edited)).Frame() != base {
		t.Error("a policy edit moved the frame")
	}

	// Nor is the property's location: only the implication check reads it,
	// and every edge check keeps its key.
	moved := baseFrame(n)
	moved.loc = AtRouter("R2")
	atR2 := frameProblem(n, moved)
	if atR2.Frame() != base {
		t.Error("moving the property moved the frame")
	}
	every := make([]int, len(n.Index().Edges))
	for i := range every {
		every[i] = i
	}
	atR3 := frameProblem(n, baseFrame(n))
	here := append(atR3.EdgeChecks(every), atR3.ImplicationCheck())
	there := append(atR2.EdgeChecks(every), atR2.ImplicationCheck())
	if len(here) != len(there) {
		t.Fatalf("%d checks at R3, %d at R2", len(here), len(there))
	}
	for i := range here[:len(here)-1] {
		if here[i].Key() != there[i].Key() || here[i].Loc != there[i].Loc {
			t.Errorf("edge check %d: %s %s at R3, %s %s at R2", i, here[i].Loc, here[i].Key(), there[i].Loc, there[i].Key())
		}
	}
	if last := len(here) - 1; here[last].Loc == there[last].Loc {
		t.Errorf("both implication checks are at %s", here[last].Loc)
	}
}

// TestChecksAtIsChecksRestricted: the checks at a set of edges —
// EdgeChecks, then ImplicationCheck — are Checks over every edge, and over a
// subset they are the subset of Checks' edge checks plus the implication
// check, with the same keys.
func TestChecksAtIsChecksRestricted(t *testing.T) {
	n := frameNet()
	p := frameProblem(n, baseFrame(n))
	all := p.Checks(Options{})
	keys := func(cs []Check) (out []string) {
		for _, c := range cs {
			out = append(out, c.Kind.String()+"|"+c.Loc.String()+"|"+c.Key())
		}
		return out
	}
	checksAt := func(edges []int) []Check { return append(p.EdgeChecks(edges), p.ImplicationCheck()) }
	edges := n.Index().Edges
	every := make([]int, len(edges))
	for i := range every {
		every[i] = i
	}
	if got, want := keys(checksAt(every)), keys(all); !equalStrings(got, want) {
		t.Fatalf("EdgeChecks(every edge) + ImplicationCheck\n%v\nChecks\n%v", got, want)
	}
	var some []int
	var want []Check
	for i, e := range edges {
		if e.From == "R2" {
			some = append(some, i)
			for _, c := range all {
				if c.Loc == AtEdge(e) {
					want = append(want, c)
				}
			}
		}
	}
	want = append(want, all[len(all)-1])
	if got := keys(checksAt(some)); !equalStrings(got, keys(want)) {
		t.Fatalf("EdgeChecks(R2's edges) + ImplicationCheck\n%v\nwant\n%v", got, keys(want))
	}
	if got := checksAt(nil); len(got) != 1 || got[0].Kind != all[len(all)-1].Kind {
		t.Fatalf("no edges: %v, want the implication check alone", keys(got))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAtChangesOnlyTheLocationAndDescription: a problem posed with At
// shares its family's network, predicate, invariants and ghosts, and is
// its family's problem with another Property.Loc and Property.Desc.
func TestAtChangesOnlyTheLocationAndDescription(t *testing.T) {
	n := frameNet()
	fam := frameProblem(n, baseFrame(n))
	fam.Property.Desc = "at R3"
	at := fam.At(AtRouter("R2"), "at R2")
	again := at.At(AtRouter("R1"), "at R1")
	if at.Family() != fam || again.Family() != fam || fam.Family() != fam {
		t.Fatal("a posed problem's family is not the problem it was posed from")
	}
	if at.Property.Loc != AtRouter("R2") || at.Property.Desc != "at R2" {
		t.Fatalf("posed at %s as %q", at.Property.Loc, at.Property.Desc)
	}
	want := *fam
	want.Property.Loc, want.Property.Desc, want.family = at.Property.Loc, at.Property.Desc, fam
	if !reflect.DeepEqual(*at, want) {
		t.Errorf("At changed more than the location and description:\n%+v\nwant\n%+v", *at, want)
	}
	if at.Network != fam.Network || at.Property.Pred != fam.Property.Pred || at.Invariants != fam.Invariants || &at.Ghosts[0] != &fam.Ghosts[0] {
		t.Error("a posed problem copies what it should share")
	}
	if at.Frame() != fam.Frame() {
		t.Error("a posed problem's frame is not its family's")
	}
}
