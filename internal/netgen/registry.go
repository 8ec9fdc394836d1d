package netgen

import (
	"fmt"
	"sort"

	"lightyear/internal/core"
	"lightyear/internal/topology"
)

// This file is the named property registry: every built-in property suite is
// registered under the name cmd/lightyear and the lyserve HTTP API accept,
// replacing the hand-written switch the CLI used to carry. A suite maps a
// network (parsed or generated) to the batch of verification problems it
// implies, ready to submit to an internal/engine Engine.
//
// Suites decompose into two reusable builder layers that internal/plan
// composes declaratively:
//
//   - network builders (Generate, over GeneratorSpec) materialize a network
//     independent of any property, and
//   - property builders (Suite.Problems) enumerate a suite's problems over a
//     network, restricted to an optional Scope (router and/or region subset).
//
// Suite.Build keeps the unscoped entry point every pre-plan caller uses.

// SuiteParams parameterizes suite construction for suites that depend on
// deployment shape.
type SuiteParams struct {
	// Regions is the region count assumed by the WAN suites; 0 means 3.
	Regions int
}

func (p SuiteParams) regions() int {
	if p.Regions > 0 {
		return p.Regions
	}
	return 3
}

// EffectiveRegions is the region count the WAN suites will assume under
// these params — the bound region scopes are validated against.
func (p SuiteParams) EffectiveRegions() int { return p.regions() }

// Scope restricts a property build to a subset of the network. A zero Scope
// selects everything. Scoping applies to the dimensions a suite is
// parameterized over: per-router suites (wan-peering, wan-ip-reuse) honor
// Routers, regional suites (wan-ip-reuse, wan-ip-liveness) honor Regions,
// and network-global suites (the fig1 properties, fullmesh) build their
// single problem regardless of scope.
type Scope struct {
	// Routers, when non-empty, restricts per-router problems to these
	// routers.
	Routers []topology.NodeID `json:"routers,omitempty"`
	// Regions, when non-empty, restricts regional problems to these region
	// indices (0-based).
	Regions []int `json:"regions,omitempty"`
}

// Empty reports whether the scope selects the whole network.
func (sc Scope) Empty() bool { return len(sc.Routers) == 0 && len(sc.Regions) == 0 }

// AllowRouter reports whether a per-router problem at id is in scope.
func (sc Scope) AllowRouter(id topology.NodeID) bool {
	if len(sc.Routers) == 0 {
		return true
	}
	for _, r := range sc.Routers {
		if r == id {
			return true
		}
	}
	return false
}

// AllowRegion reports whether a regional problem for region index i is in
// scope.
func (sc Scope) AllowRegion(i int) bool {
	if len(sc.Regions) == 0 {
		return true
	}
	for _, r := range sc.Regions {
		if r == i {
			return true
		}
	}
	return false
}

// Validate rejects scopes that name routers absent from the network (or
// external nodes) or region indices outside [0, regions), so a mistyped
// scope silently selecting nothing — and passing vacuously — is an error
// instead. regions is the suite-visible region count
// (SuiteParams.EffectiveRegions).
func (sc Scope) Validate(n *topology.Network, regions int) error {
	for _, id := range sc.Routers {
		node := n.Node(id)
		if node == nil {
			return fmt.Errorf("scope names unknown router %q", id)
		}
		if node.External {
			return fmt.Errorf("scope names external node %q; only routers can be scoped", id)
		}
	}
	for _, r := range sc.Regions {
		if r < 0 || r >= regions {
			return fmt.Errorf("scope names region index %d outside [0, %d)", r, regions)
		}
	}
	return nil
}

// Problem is one verification problem of a suite: exactly one of Safety or
// Liveness is set.
type Problem struct {
	Name     string
	Safety   *core.SafetyProblem
	Liveness *core.LivenessProblem
	// Optional marks liveness problems whose witness path may be absent
	// from a user-supplied network (e.g. WAN region paths on a parsed
	// config with fewer regions); such problems are skipped rather than
	// failed when validation rejects them.
	Optional bool
}

// Suite is a named family of verification problems over one network. The
// Problems builder is the scoped property builder plans compose; Build is
// the unscoped convenience used by pre-plan callers.
type Suite struct {
	Name string
	Desc string
	// Problems enumerates the suite's problems over n, restricted to sc.
	Problems func(n *topology.Network, p SuiteParams, sc Scope) []Problem
}

// Build enumerates every problem of the suite (an empty Scope).
func (s Suite) Build(n *topology.Network, p SuiteParams) []Problem {
	return s.Problems(n, p, Scope{})
}

var suites = map[string]Suite{}

func registerSuite(s Suite) {
	if _, dup := suites[s.Name]; dup {
		panic(fmt.Sprintf("netgen: duplicate suite %q", s.Name))
	}
	suites[s.Name] = s
}

// Lookup returns the named suite.
func Lookup(name string) (Suite, bool) {
	s, ok := suites[name]
	return s, ok
}

// SuiteNames returns the registered suite names, sorted.
func SuiteNames() []string {
	names := make([]string, 0, len(suites))
	for name := range suites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Suites returns every registered suite, sorted by name.
func Suites() []Suite {
	out := make([]Suite, 0, len(suites))
	for _, name := range SuiteNames() {
		out = append(out, suites[name])
	}
	return out
}

func init() {
	registerSuite(Suite{
		Name: "fig1-no-transit",
		Desc: "Table 2: routes from ISP1 never reach ISP2",
		Problems: func(n *topology.Network, _ SuiteParams, _ Scope) []Problem {
			return []Problem{{Name: "fig1-no-transit", Safety: Fig1NoTransitProblem(n)}}
		},
	})
	registerSuite(Suite{
		Name: "fig1-liveness",
		Desc: "Table 3: customer prefixes reach ISP2",
		Problems: func(n *topology.Network, _ SuiteParams, _ Scope) []Problem {
			return []Problem{{Name: "fig1-liveness", Liveness: Fig1LivenessProblem(n)}}
		},
	})
	registerSuite(Suite{
		Name: "fullmesh",
		Desc: "§6.2: no-transit on a generated full mesh",
		Problems: func(n *topology.Network, _ SuiteParams, _ Scope) []Problem {
			return []Problem{{Name: "fullmesh", Safety: FullMeshProblem(n)}}
		},
	})
	registerSuite(Suite{
		Name: "wan-peering",
		Desc: "Table 4a: the 11 peering properties at every router",
		Problems: func(n *topology.Network, p SuiteParams, sc Scope) []Problem {
			var out []Problem
			for _, prop := range PeeringProperties(p.regions()) {
				at := peeringAt(n, prop)
				for _, r := range n.Routers() {
					if !sc.AllowRouter(r) {
						continue
					}
					out = append(out, Problem{
						Name:   fmt.Sprintf("%s@%s", prop.Name, r),
						Safety: at(r),
					})
				}
			}
			return out
		},
	})
	registerSuite(Suite{
		Name: "wan-ip-reuse",
		Desc: "Table 4b: regional reused-IP isolation",
		Problems: func(n *topology.Network, p SuiteParams, sc Scope) []Problem {
			wp := WANParams{Regions: p.regions()}
			var out []Problem
			for r := 0; r < wp.Regions; r++ {
				if !sc.AllowRegion(r) {
					continue
				}
				region, at := regionName(r), ipReuseAt(n, wp, r)
				for _, outside := range n.Routers() {
					if n.Node(outside).Region == region || !sc.AllowRouter(outside) {
						continue
					}
					out = append(out, Problem{
						Name:   fmt.Sprintf("ip-reuse-region-%d@%s", r, outside),
						Safety: at(outside),
					})
				}
			}
			return out
		},
	})
	registerSuite(Suite{
		Name: "wan-ip-liveness",
		Desc: "Table 4c: reused routes propagate within each region",
		Problems: func(n *topology.Network, p SuiteParams, sc Scope) []Problem {
			wp := WANParams{Regions: p.regions()}
			var out []Problem
			for r := 0; r < wp.Regions; r++ {
				if !sc.AllowRegion(r) {
					continue
				}
				out = append(out, Problem{
					Name:     fmt.Sprintf("ip-liveness-region-%d", r),
					Liveness: IPReuseLivenessProblem(n, wp, r),
					Optional: true,
				})
			}
			return out
		},
	})
}
