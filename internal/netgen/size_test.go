package netgen

import "testing"

// TestGeneratorSizeCountsTheNetwork: the size a spec is bounded by is the
// size of the network it generates, so the bound refuses exactly what it
// says it refuses.
func TestGeneratorSizeCountsTheNetwork(t *testing.T) {
	for _, g := range []GeneratorSpec{
		{Kind: "fullmesh"},
		{Kind: "fullmesh", Size: 7},
		{Kind: "wan"},
		{Kind: "wan", Regions: 2, RoutersPerRegion: 1, EdgeRouters: 1, PeersPerEdge: 2},
		{Kind: "wan", Regions: 20, RoutersPerRegion: 4, EdgeRouters: 6, DCsPerRegion: 1, PeersPerEdge: 6},
	} {
		n, _, err := Generate(g)
		if err != nil {
			t.Fatalf("%+v: %v", g, err)
		}
		routers, sessions := g.size()
		if int(routers) != len(n.Routers()) || int(sessions) != len(n.Edges()) {
			t.Errorf("%+v: counted %v routers and %v sessions, generated %d and %d",
				g, routers, sessions, len(n.Routers()), len(n.Edges()))
		}
	}
	if _, _, err := Generate(GeneratorSpec{Kind: "fullmesh", Size: 200}); err == nil {
		t.Error("a 200-router full mesh (40,000 sessions) was generated past the bound")
	}
}
