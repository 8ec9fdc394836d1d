package netgen

import (
	"fmt"

	"lightyear/internal/topology"
)

// GeneratorSpec names a built-in network generator with its parameters — the
// serializable network-builder half of a verification plan. It is the same
// shape the lyserve HTTP API has always accepted under "generator"; moving
// it here lets the CLI, the service, and internal/plan materialize networks
// from one registry.
type GeneratorSpec struct {
	// Kind selects the generator: "fig1", "fullmesh", or "wan".
	Kind string `json:"kind"`
	// Size is the router count for "fullmesh" (0 means 10).
	Size int `json:"size,omitempty"`
	// The remaining fields parameterize "wan"; zero values take the
	// DefaultWANParams defaults.
	Regions          int `json:"regions,omitempty"`
	RoutersPerRegion int `json:"routers_per_region,omitempty"`
	EdgeRouters      int `json:"edge_routers,omitempty"`
	DCsPerRegion     int `json:"dcs_per_region,omitempty"`
	PeersPerEdge     int `json:"peers_per_edge,omitempty"`
}

// MaxSourceSize bounds the routers, and separately the BGP sessions
// (directed: two per peering), that a generator spec or a corpus member may
// describe. Both counts are computed from the parameters before anything is
// generated, so a hundred-byte request cannot make a host build a
// million-session network; the bound sits above the 20-region benchmark
// WAN (86 routers, 7,542 sessions).
const MaxSourceSize = 1 << 14

// CheckSourceSize rejects a source whose router or session count exceeds
// MaxSourceSize. The counts are float64 so that callers computing them from
// unchecked parameters cannot overflow.
func CheckSourceSize(source string, routers, sessions float64) error {
	if routers > MaxSourceSize || sessions > MaxSourceSize {
		return fmt.Errorf("%s describes %.0f routers and %.0f sessions; the bound is %d of each",
			source, routers, sessions, MaxSourceSize)
	}
	return nil
}

// CheckSize rejects a spec whose network would exceed MaxSourceSize,
// without generating it.
func (g GeneratorSpec) CheckSize() error {
	routers, sessions := g.size()
	return CheckSourceSize(g.Kind+" generator", routers, sessions)
}

// size counts the routers and directed sessions the spec generates.
func (g GeneratorSpec) size() (routers, sessions float64) {
	switch g.Kind {
	case "fullmesh":
		n := float64(max(g.fullMeshSize(), 0)) // Generate refuses n < 2
		return n, n*(n-1) + 2*n                // the mesh, plus one external each
	case "wan":
		p := g.wanParams()
		r, rpr := float64(p.Regions), float64(p.RoutersPerRegion)
		e := float64(p.EdgeRouters)
		routers = r*rpr + e // the iBGP full mesh
		return routers, routers*(routers-1) + 2*(r*float64(p.DCsPerRegion)*rpr+e*float64(p.PeersPerEdge))
	}
	return 0, 0
}

// fullMeshSize is the "fullmesh" router count: Size, 10 when unset.
func (g GeneratorSpec) fullMeshSize() int {
	if g.Size == 0 {
		return 10
	}
	return g.Size
}

// wanParams is the "wan" parameter set: the spec's positive fields over
// DefaultWANParams.
func (g GeneratorSpec) wanParams() WANParams {
	p := DefaultWANParams()
	if g.Regions > 0 {
		p.Regions = g.Regions
	}
	if g.RoutersPerRegion > 0 {
		p.RoutersPerRegion = g.RoutersPerRegion
	}
	if g.EdgeRouters > 0 {
		p.EdgeRouters = g.EdgeRouters
	}
	if g.DCsPerRegion > 0 {
		p.DCsPerRegion = g.DCsPerRegion
	}
	if g.PeersPerEdge > 0 {
		p.PeersPerEdge = g.PeersPerEdge
	}
	return p
}

// Generate materializes the spec. The second return value is the region
// count WAN suites should assume for this network (0 for non-regional
// generators, deferring to the request's own region setting).
func Generate(g GeneratorSpec) (*topology.Network, int, error) {
	switch g.Kind {
	case "fig1":
		return Fig1(Fig1Options{}), 0, nil
	case "fullmesh":
		size := g.fullMeshSize()
		if size < 2 {
			return nil, 0, fmt.Errorf("fullmesh size must be >= 2")
		}
		if err := g.CheckSize(); err != nil {
			return nil, 0, err
		}
		return FullMesh(size), 0, nil
	case "wan":
		if err := g.CheckSize(); err != nil {
			return nil, 0, err
		}
		p := g.wanParams()
		return WAN(p, WANBugs{}), p.Regions, nil
	default:
		return nil, 0, fmt.Errorf("unknown generator kind %q (fig1|fullmesh|wan)", g.Kind)
	}
}
