// Package topology models the BGP network of §3.1: a set of configured
// routers, a set of external routers (eBGP/iBGP peers without provided
// configuration), and directed edges for BGP peering sessions. The Network
// type additionally binds the policy functions — Import and Export route
// maps per directed edge, and Originate route sets — which together with the
// graph form the complete verification input.
package topology

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"lightyear/internal/policy"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
)

// NodeID names a router or external neighbor.
type NodeID string

// Edge is a directed BGP session edge A -> B (A sends announcements to B).
type Edge struct {
	From, To NodeID
}

// String renders "A -> B".
func (e Edge) String() string { return string(e.From) + " -> " + string(e.To) }

// Reverse returns the opposite direction edge.
func (e Edge) Reverse() Edge { return Edge{From: e.To, To: e.From} }

// Node is a router or an external neighbor.
type Node struct {
	ID       NodeID
	AS       uint32
	External bool   // true for neighbors without configuration
	Role     string // free-form role tag: "edge", "core", "dc", ...
	Region   string // region tag for the WAN scenarios
}

// Network is a BGP topology plus its policy bindings. Construct with New and
// the Add* methods; call Validate before verification.
type Network struct {
	nodes map[NodeID]*Node
	edges map[Edge]struct{}
	out   map[NodeID][]NodeID
	in    map[NodeID][]NodeID

	imports    map[Edge]*policy.RouteMap
	exports    map[Edge]*policy.RouteMap
	originates map[Edge][]*routemodel.Route

	indexMu     sync.Mutex
	index       *PolicyIndex   // memoised by Index; every mutator drops it
	fingerprint string         // memoised by Fingerprint; dropped with the index
	universe    *spec.Universe // memoised by Universe; dropped with the index
}

// PolicyIndex is what check enumeration reads off a built network, computed
// once and shared read-only by every problem over it: the sorted edge list
// and, aligned with it, the content fingerprint of each edge's import map,
// export map and originated routes. Route maps are values their builder may
// still edit, so the fingerprints are memoised here, on the network that
// binds them, and every mutator (AddRouter, AddEdge, SetImport, SetExport,
// AddOriginate) drops the index; a Clone starts without one.
type PolicyIndex struct {
	Edges                     []Edge
	Import, Export, Originate []spec.Fingerprint
}

// Index returns the network's memoised PolicyIndex, building it on first use
// after a mutation.
func (n *Network) Index() *PolicyIndex {
	n.indexMu.Lock()
	defer n.indexMu.Unlock()
	if n.index == nil {
		n.buildIndex(nil)
	}
	return n.index
}

// buildIndex builds the PolicyIndex, rendering each edge's route maps and
// originated routes once; with a non-nil sig the same renderings also go
// into the network's signature (writeSignature), so computing both renders
// the network once. The caller holds indexMu.
func (n *Network) buildIndex(sig io.Writer) {
	idx := &PolicyIndex{Edges: n.Edges()}
	var routes strings.Builder
	var rendered []string
	for _, e := range idx.Edges {
		im, ex := n.imports[e].String(), n.exports[e].String()
		routes.Reset()
		rendered = rendered[:0]
		for _, r := range n.originates[e] {
			s := r.String()
			rendered = append(rendered, s)
			routes.WriteString(s + ";")
		}
		idx.Import = append(idx.Import, spec.Sum(im))
		idx.Export = append(idx.Export, spec.Sum(ex))
		idx.Originate = append(idx.Originate, spec.Sum(routes.String()))
		if sig != nil {
			writeEdgeSignature(sig, e, im, ex, rendered)
		}
	}
	n.index = idx
}

// touch drops the memoised index and fingerprint; every mutator calls it.
func (n *Network) touch() {
	n.indexMu.Lock()
	n.index, n.fingerprint, n.universe = nil, "", nil
	n.indexMu.Unlock()
}

// New returns an empty network.
func New() *Network {
	return &Network{
		nodes:      make(map[NodeID]*Node),
		edges:      make(map[Edge]struct{}),
		out:        make(map[NodeID][]NodeID),
		in:         make(map[NodeID][]NodeID),
		imports:    make(map[Edge]*policy.RouteMap),
		exports:    make(map[Edge]*policy.RouteMap),
		originates: make(map[Edge][]*routemodel.Route),
	}
}

// AddRouter adds a configured router.
func (n *Network) AddRouter(id NodeID, as uint32) *Node {
	return n.addNode(id, as, false)
}

// AddExternal adds an external neighbor.
func (n *Network) AddExternal(id NodeID, as uint32) *Node {
	return n.addNode(id, as, true)
}

func (n *Network) addNode(id NodeID, as uint32, external bool) *Node {
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("topology: duplicate node %q", id))
	}
	node := &Node{ID: id, AS: as, External: external}
	n.nodes[id] = node
	n.touch()
	return node
}

// AddEdge adds the directed session edge from -> to. Both endpoints must
// already exist.
func (n *Network) AddEdge(from, to NodeID) Edge {
	if _, ok := n.nodes[from]; !ok {
		panic(fmt.Sprintf("topology: unknown node %q", from))
	}
	if _, ok := n.nodes[to]; !ok {
		panic(fmt.Sprintf("topology: unknown node %q", to))
	}
	e := Edge{From: from, To: to}
	if _, dup := n.edges[e]; !dup {
		n.touch()
		n.edges[e] = struct{}{}
		n.out[from] = append(n.out[from], to)
		n.in[to] = append(n.in[to], from)
	}
	return e
}

// AddPeering adds both directions of a BGP session between a and b.
func (n *Network) AddPeering(a, b NodeID) (Edge, Edge) {
	return n.AddEdge(a, b), n.AddEdge(b, a)
}

// Node returns the node with the given id, or nil.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// HasEdge reports whether the directed edge exists.
func (n *Network) HasEdge(e Edge) bool {
	_, ok := n.edges[e]
	return ok
}

// IsExternal reports whether id names an external neighbor.
func (n *Network) IsExternal(id NodeID) bool {
	node := n.nodes[id]
	return node != nil && node.External
}

// Routers returns configured router IDs in deterministic order.
func (n *Network) Routers() []NodeID {
	var out []NodeID
	for id, node := range n.nodes {
		if !node.External {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

// Externals returns external neighbor IDs in deterministic order.
func (n *Network) Externals() []NodeID {
	var out []NodeID
	for id, node := range n.nodes {
		if node.External {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

// Edges returns all directed edges in deterministic order.
func (n *Network) Edges() []Edge {
	out := make([]Edge, 0, len(n.edges))
	for e := range n.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return edgeLess(out[i], out[j]) })
	return out
}

// Neighbors returns the nodes that id sends announcements to, in
// deterministic order.
func (n *Network) Neighbors(id NodeID) []NodeID {
	out := append([]NodeID(nil), n.out[id]...)
	sortIDs(out)
	return out
}

// Predecessors returns the nodes that send announcements to id, in
// deterministic order.
func (n *Network) Predecessors(id NodeID) []NodeID {
	out := append([]NodeID(nil), n.in[id]...)
	sortIDs(out)
	return out
}

// Degree returns the number of distinct BGP neighbors of id (sessions are
// added in both directions, so out-neighbors cover them).
func (n *Network) Degree(id NodeID) int { return len(n.out[id]) }

func sortIDs(ids []NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// SetImport binds the import route map applied at e.To for routes arriving
// on e.
func (n *Network) SetImport(e Edge, m *policy.RouteMap) {
	n.mustEdge(e)
	n.touch()
	n.imports[e] = m
}

// SetExport binds the export route map applied at e.From for routes sent on
// e.
func (n *Network) SetExport(e Edge, m *policy.RouteMap) {
	n.mustEdge(e)
	n.touch()
	n.exports[e] = m
}

// AddOriginate registers a route originated at e.From and advertised to
// e.To (static/network statements redistributed into BGP, §3.1).
func (n *Network) AddOriginate(e Edge, r *routemodel.Route) {
	n.mustEdge(e)
	n.touch()
	n.originates[e] = append(n.originates[e], r)
}

func (n *Network) mustEdge(e Edge) {
	if _, ok := n.edges[e]; !ok {
		panic(fmt.Sprintf("topology: unknown edge %v", e))
	}
}

// Import returns the import route map for edge e (nil permits all).
func (n *Network) Import(e Edge) *policy.RouteMap { return n.imports[e] }

// Export returns the export route map for edge e (nil permits all).
func (n *Network) Export(e Edge) *policy.RouteMap { return n.exports[e] }

// Originate returns the routes originated on edge e.
func (n *Network) Originate(e Edge) []*routemodel.Route { return n.originates[e] }

// NumNodes returns the total node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumEdges returns the directed edge count.
func (n *Network) NumEdges() int { return len(n.edges) }

// Universe returns a new universe holding every community, AS number, and
// ghost name mentioned by any policy or origination in the network. The
// collection is memoised like the PolicyIndex; each call returns its own
// copy, which the caller may extend.
func (n *Network) Universe() *spec.Universe {
	n.indexMu.Lock()
	defer n.indexMu.Unlock()
	if n.universe == nil {
		n.universe = n.collectUniverse()
	}
	u := spec.NewUniverse()
	u.Merge(n.universe)
	return u
}

func (n *Network) collectUniverse() *spec.Universe {
	u := spec.NewUniverse()
	for e := range n.edges {
		n.imports[e].AddToUniverse(u)
		n.exports[e].AddToUniverse(u)
	}
	for _, node := range n.nodes {
		if node.AS != 0 {
			u.AddASN(node.AS)
		}
	}
	for _, routes := range n.originates {
		for _, r := range routes {
			for c := range r.Communities {
				u.AddCommunity(c)
			}
			for _, as := range r.ASPath {
				u.AddASN(as)
			}
		}
	}
	return u
}

// Validate checks structural well-formedness: every edge endpoint exists,
// no edge connects two external nodes, policies are only bound to existing
// edges, and external nodes have no import/export policy on their side.
func (n *Network) Validate() error {
	for e := range n.edges {
		from, okF := n.nodes[e.From]
		to, okT := n.nodes[e.To]
		if !okF || !okT {
			return fmt.Errorf("topology: edge %v references missing node", e)
		}
		if from.External && to.External {
			return fmt.Errorf("topology: edge %v connects two external nodes", e)
		}
	}
	for e, m := range n.imports {
		if m != nil && n.IsExternal(e.To) {
			return fmt.Errorf("topology: import policy bound at external node on %v", e)
		}
	}
	for e, m := range n.exports {
		if m != nil && n.IsExternal(e.From) {
			return fmt.Errorf("topology: export policy bound at external node on %v", e)
		}
	}
	for e, routes := range n.originates {
		if len(routes) > 0 && n.IsExternal(e.From) {
			return fmt.Errorf("topology: origination at external node on %v", e)
		}
	}
	return nil
}

// Clone returns an independent copy of the network: nodes are copied by
// value and every map and adjacency slice is rebuilt, so structural edits
// and policy rebinding (SetImport/SetExport/AddOriginate) on the clone
// never affect the original. Route maps and originated routes are shared
// by pointer — they are treated as immutable values throughout (mutation
// helpers copy-on-write, see netgen.PrependDeny), which is what makes an
// N-step migration plan affordable: each step clones the graph shell and
// replaces only the one binding it edits.
func (n *Network) Clone() *Network {
	c := &Network{
		nodes:      make(map[NodeID]*Node, len(n.nodes)),
		edges:      make(map[Edge]struct{}, len(n.edges)),
		out:        make(map[NodeID][]NodeID, len(n.out)),
		in:         make(map[NodeID][]NodeID, len(n.in)),
		imports:    make(map[Edge]*policy.RouteMap, len(n.imports)),
		exports:    make(map[Edge]*policy.RouteMap, len(n.exports)),
		originates: make(map[Edge][]*routemodel.Route, len(n.originates)),
	}
	for id, node := range n.nodes {
		cp := *node
		c.nodes[id] = &cp
	}
	for e := range n.edges {
		c.edges[e] = struct{}{}
	}
	for id, ns := range n.out {
		c.out[id] = append([]NodeID(nil), ns...)
	}
	for id, ns := range n.in {
		c.in[id] = append([]NodeID(nil), ns...)
	}
	for e, m := range n.imports {
		c.imports[e] = m
	}
	for e, m := range n.exports {
		c.exports[e] = m
	}
	for e, rs := range n.originates {
		c.originates[e] = append([]*routemodel.Route(nil), rs...)
	}
	return c
}

// RoutersByRole returns configured routers with the given role tag.
func (n *Network) RoutersByRole(role string) []NodeID {
	var out []NodeID
	for id, node := range n.nodes {
		if !node.External && node.Role == role {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

// RoutersByRegion returns configured routers with the given region tag.
func (n *Network) RoutersByRegion(region string) []NodeID {
	var out []NodeID
	for id, node := range n.nodes {
		if !node.External && node.Region == region {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}
