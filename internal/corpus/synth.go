package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lightyear/internal/topology"
)

// The synthesizer layer: each family turns (knobs, seed) into an abstract
// graph — routers with roles and region tags, undirected internal links,
// and per-router external peer counts. Everything downstream (policy
// binding, DSL emission, bug planting) is family-agnostic.
//
// Determinism contract: all randomness comes from rand.New(rand.NewSource
// (seed)) drawn in a fixed iteration order, so the same member reference
// synthesizes the same graph on every run and platform.

// router is one internal node of a synthesized graph.
type router struct {
	id     string
	role   string // core | aggregation | edge
	region string // "" = untagged
	peers  int    // external peer sessions attached here
}

// graph is the family-agnostic synthesis product.
type graph struct {
	routers []router
	links   [][2]int // undirected, indices into routers, a < b
}

// peerID names the k-th external peer of a router.
func peerID(routerID string, k int) topology.NodeID {
	return topology.NodeID(fmt.Sprintf("px-%s-%d", routerID, k))
}

// peerSessions enumerates every external peer session as the directed
// import edge peer → router, in emission order.
func (g *graph) peerSessions() []topology.Edge {
	var out []topology.Edge
	for _, r := range g.routers {
		for k := 0; k < r.peers; k++ {
			out = append(out, topology.Edge{From: peerID(r.id, k), To: topology.NodeID(r.id)})
		}
	}
	return out
}

func defaultInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// size counts the routers and directed sessions the member synthesizes,
// from the knobs with the synthesizers' defaults and clamps. Waxman links
// are random and counted at their ceiling, the complete graph; a zoo graph
// is counted from its text.
func (m Member) size() (routers, sessions float64) {
	peers := float64(defaultInt(m.Peers, 1))
	var links, edgeRouters float64 // edge routers carry the peer sessions
	switch m.Family {
	case "ring":
		routers = float64(max(defaultInt(m.Size, 8), 3))
		links, edgeRouters = routers, routers
	case "tree":
		depth := float64(max(defaultInt(m.Depth, 2), 1))
		fanout := float64(max(defaultInt(m.Fanout, 2), 2))
		edgeRouters = math.Pow(fanout, depth) // the leaves
		routers = (edgeRouters*fanout - 1) / (fanout - 1)
		links = routers - 1
	case "fattree":
		half := float64(defaultInt(m.K, 4) / 2)
		routers = half*half + 4*half*half // core, then k pods of k routers
		links, edgeRouters = 4*half*half*half, 2*half*half
	case "waxman":
		routers = float64(max(defaultInt(m.Size, 12), 3))
		links, edgeRouters = routers*(routers-1)/2, routers
	case "zoo":
		text := m.GraphText
		if text == "" {
			text = builtinGraphs[m.Graph]
		}
		nodes, graphEdges, err := ParseGraph(text)
		if err != nil {
			return 0, 0 // synthesis reports it
		}
		routers, links, edgeRouters = float64(len(nodes)), float64(len(graphEdges)), float64(len(nodes))
	}
	return routers, 2 * (links + edgeRouters*peers)
}

// synthesize dispatches to the member's family.
func (m Member) synthesize() (*graph, error) {
	var g *graph
	var err error
	switch m.Family {
	case "ring":
		g = synthRing(m)
	case "tree":
		g = synthTree(m)
	case "fattree":
		g, err = synthFatTree(m)
	case "waxman":
		g = synthWaxman(m)
	case "zoo":
		g, err = synthZoo(m)
	default:
		err = fmt.Errorf("corpus: unknown family %q", m.Family)
	}
	if err != nil {
		return nil, err
	}
	if len(g.routers) == 0 {
		return nil, fmt.Errorf("corpus: %s synthesized an empty graph", m.Ref())
	}
	m.tagRegions(g)
	return g, nil
}

// tagRegions spreads region tags round-robin over the routers (waxman
// assigns by position instead and leaves them set already).
func (m Member) tagRegions(g *graph) {
	r := defaultInt(m.Regions, 0)
	if r <= 0 {
		return
	}
	for i := range g.routers {
		if g.routers[i].region == "" {
			g.routers[i].region = fmt.Sprintf("region-%d", i%r)
		}
	}
}

// synthRing builds a cycle of edge routers, each peering externally.
func synthRing(m Member) *graph {
	size := defaultInt(m.Size, 8)
	if size < 3 {
		size = 3
	}
	peers := defaultInt(m.Peers, 1)
	g := &graph{}
	for i := 0; i < size; i++ {
		g.routers = append(g.routers, router{id: fmt.Sprintf("r%d", i), role: "edge", peers: peers})
	}
	for i := 0; i < size; i++ {
		a, b := i, (i+1)%size
		if a > b {
			a, b = b, a
		}
		g.links = append(g.links, [2]int{a, b})
	}
	return g
}

// synthTree builds a rooted fanout-ary tree: root = core, inner levels =
// aggregation, leaves = edge routers with peers.
func synthTree(m Member) *graph {
	depth := defaultInt(m.Depth, 2)
	if depth < 1 {
		depth = 1
	}
	fanout := defaultInt(m.Fanout, 2)
	if fanout < 2 {
		fanout = 2
	}
	peers := defaultInt(m.Peers, 1)
	g := &graph{}
	// Level-order construction: level l has fanout^l nodes.
	levelStart := []int{0}
	for l, count := 0, 1; l <= depth; l, count = l+1, count*fanout {
		for i := 0; i < count; i++ {
			role := "aggregation"
			p := 0
			switch {
			case l == 0:
				role = "core"
			case l == depth:
				role = "edge"
				p = peers
			}
			g.routers = append(g.routers, router{id: fmt.Sprintf("n%d-%d", l, i), role: role, peers: p})
		}
		levelStart = append(levelStart, len(g.routers))
	}
	for l := 1; l <= depth; l++ {
		for i := levelStart[l]; i < levelStart[l+1]; i++ {
			parent := levelStart[l-1] + (i-levelStart[l])/fanout
			g.links = append(g.links, [2]int{parent, i})
		}
	}
	return g
}

// synthFatTree builds the classic k-pod fat-tree: (k/2)² core routers, k
// pods of k/2 aggregation + k/2 edge routers; every edge router peers
// externally.
func synthFatTree(m Member) (*graph, error) {
	k := defaultInt(m.K, 4)
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("corpus: fattree k must be an even number >= 2, got %d", k)
	}
	peers := defaultInt(m.Peers, 1)
	half := k / 2
	g := &graph{}
	coreAt := func(i, j int) int { return i*half + j }
	for i := 0; i < half; i++ {
		for j := 0; j < half; j++ {
			g.routers = append(g.routers, router{id: fmt.Sprintf("core-%d-%d", i, j), role: "core"})
		}
	}
	for pod := 0; pod < k; pod++ {
		aggStart := len(g.routers)
		for a := 0; a < half; a++ {
			g.routers = append(g.routers, router{id: fmt.Sprintf("agg-%d-%d", pod, a), role: "aggregation"})
			// Aggregation router a of every pod uplinks to core row a.
			for j := 0; j < half; j++ {
				g.links = append(g.links, [2]int{coreAt(a, j), aggStart + a})
			}
		}
		for e := 0; e < half; e++ {
			idx := len(g.routers)
			g.routers = append(g.routers, router{id: fmt.Sprintf("edge-%d-%d", pod, e), role: "edge", peers: peers})
			for a := 0; a < half; a++ {
				g.links = append(g.links, [2]int{aggStart + a, idx})
			}
		}
	}
	return g, nil
}

// synthWaxman builds a random geometric Waxman graph: routers placed
// uniformly in the unit square, each pair linked with probability
// α·exp(−d/(β·L)) where α is calibrated to the target mean degree, then
// patched to a single connected component. Roles are ranked by degree
// (top quarter core, next quarter aggregation, rest edge) and regions —
// when requested — are vertical bands of the square.
func synthWaxman(m Member) *graph {
	size := defaultInt(m.Size, 12)
	if size < 3 {
		size = 3
	}
	degree := defaultInt(m.Degree, 3)
	peers := defaultInt(m.Peers, 1)
	regions := defaultInt(m.Regions, 0)
	rng := rand.New(rand.NewSource(m.Seed))

	xs := make([]float64, size)
	ys := make([]float64, size)
	for i := 0; i < size; i++ {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	dist := func(i, j int) float64 {
		return math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
	}
	const beta = 0.4
	l := math.Sqrt2
	// Calibrate α so the expected edge count hits size·degree/2.
	expected := 0.0
	for i := 0; i < size; i++ {
		for j := i + 1; j < size; j++ {
			expected += math.Exp(-dist(i, j) / (beta * l))
		}
	}
	alpha := 1.0
	if target := float64(size*degree) / 2; expected > 0 && target < expected {
		alpha = target / expected
	}

	g := &graph{}
	for i := 0; i < size; i++ {
		g.routers = append(g.routers, router{id: fmt.Sprintf("w%d", i)})
	}
	linked := map[[2]int]bool{}
	addLink := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		if a == b || linked[[2]int{a, b}] {
			return
		}
		linked[[2]int{a, b}] = true
		g.links = append(g.links, [2]int{a, b})
	}
	for i := 0; i < size; i++ {
		for j := i + 1; j < size; j++ {
			if rng.Float64() < alpha*math.Exp(-dist(i, j)/(beta*l)) {
				addLink(i, j)
			}
		}
	}
	// Patch connectivity: union-find, then join each later component to an
	// earlier one via the geometrically shortest missing link.
	parent := make([]int, size)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, ln := range g.links {
		parent[find(ln[0])] = find(ln[1])
	}
	for i := 1; i < size; i++ {
		if find(i) == find(0) {
			continue
		}
		best, bestD := -1, math.Inf(1)
		for j := 0; j < size; j++ {
			if find(j) == find(0) && dist(i, j) < bestD {
				best, bestD = j, dist(i, j)
			}
		}
		addLink(i, best)
		parent[find(i)] = find(best)
	}
	assignRolesByDegree(g, peers)
	if regions > 0 {
		for i := range g.routers {
			band := int(xs[i] * float64(regions))
			if band >= regions {
				band = regions - 1
			}
			g.routers[i].region = fmt.Sprintf("region-%d", band)
		}
	}
	return g
}

// assignRolesByDegree ranks routers by connectivity: the top quarter are
// core, the next quarter aggregation, the rest edge routers carrying the
// external peer sessions.
func assignRolesByDegree(g *graph, peers int) {
	deg := make([]int, len(g.routers))
	for _, ln := range g.links {
		deg[ln[0]]++
		deg[ln[1]]++
	}
	order := make([]int, len(g.routers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if deg[order[a]] != deg[order[b]] {
			return deg[order[a]] > deg[order[b]]
		}
		return g.routers[order[a]].id < g.routers[order[b]].id
	})
	quarter := len(order) / 4
	if quarter < 1 {
		quarter = 1
	}
	for rank, idx := range order {
		switch {
		case len(order) > 2 && rank < quarter:
			g.routers[idx].role = "core"
		case len(order) > 2 && rank < 2*quarter:
			g.routers[idx].role = "aggregation"
		default:
			g.routers[idx].role = "edge"
			g.routers[idx].peers = peers
		}
	}
}
