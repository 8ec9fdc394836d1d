package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// This file gives a Network a stable semantic identity (Fingerprint) and a
// structural diff (DiffNetworks), the two primitives internal/delta builds
// incremental re-verification on: the fingerprint names a network state in
// the persistent result store, and the diff maps a configuration change to
// the routers and edges whose local checks are dirty.

// Fingerprint returns a hex SHA-256 digest of the network's verification-
// relevant content: every node (id, AS, external flag, role, region) and
// every edge with its bound import/export policies and originated routes,
// all in deterministic order. Two networks with equal fingerprints generate
// identical local checks, so a fingerprint names a network state in
// persistent result stores and delta sessions. It is memoised like the
// PolicyIndex: the mutators drop it, and node attributes, like route maps,
// are not edited once the network is in use.
func (n *Network) Fingerprint() string {
	n.indexMu.Lock()
	defer n.indexMu.Unlock()
	if n.fingerprint == "" {
		h := sha256.New()
		n.writeSignature(h)
		n.fingerprint = hex.EncodeToString(h.Sum(nil))
	}
	return n.fingerprint
}

// writeSignature streams the canonical serialization hashed by Fingerprint.
// The caller holds indexMu; a missing PolicyIndex is built on the way, from
// the same renderings.
func (n *Network) writeSignature(w io.Writer) {
	ids := make([]NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		ids = append(ids, id)
	}
	sortIDs(ids)
	for _, id := range ids {
		fmt.Fprintln(w, nodeSignature(n.nodes[id]))
	}
	if n.index == nil {
		n.buildIndex(w)
		return
	}
	for _, e := range n.index.Edges {
		var routes []string
		for _, r := range n.originates[e] {
			routes = append(routes, r.String())
		}
		writeEdgeSignature(w, e, n.imports[e].String(), n.exports[e].String(), routes)
	}
}

// nodeSignature canonically renders one node's attributes.
func nodeSignature(node *Node) string {
	return fmt.Sprintf("node %s as=%d external=%v role=%q region=%q",
		node.ID, node.AS, node.External, node.Role, node.Region)
}

// writeEdgeSignature canonically renders everything verification reads on
// one edge: the import and export route maps and the originated routes.
func writeEdgeSignature(w io.Writer, e Edge, im, ex string, routes []string) {
	io.WriteString(w, "edge "+e.String()+"\nimport "+im+"\nexport "+ex+"\n")
	for _, r := range routes {
		io.WriteString(w, "originate "+r+"\n")
	}
}

// NetworkDiff is the structural difference between two network states:
// which nodes and edges were added, removed, or changed. A node is
// "changed" when its attributes differ; an edge is "changed" when its
// policy bindings or originated routes differ. Local checks live on edges,
// so the changed/added edge set (plus edges adjacent to changed nodes) is
// exactly the region of the network whose checks may decide differently.
type NetworkDiff struct {
	AddedNodes   []NodeID `json:"added_nodes,omitempty"`
	RemovedNodes []NodeID `json:"removed_nodes,omitempty"`
	ChangedNodes []NodeID `json:"changed_nodes,omitempty"`

	AddedEdges   []Edge `json:"added_edges,omitempty"`
	RemovedEdges []Edge `json:"removed_edges,omitempty"`
	ChangedEdges []Edge `json:"changed_edges,omitempty"`
}

// DiffNetworks computes the structural diff from old to new.
func DiffNetworks(old, new *Network) *NetworkDiff {
	d := &NetworkDiff{}
	for id, node := range new.nodes {
		prev, ok := old.nodes[id]
		switch {
		case !ok:
			d.AddedNodes = append(d.AddedNodes, id)
		case nodeSignature(prev) != nodeSignature(node):
			d.ChangedNodes = append(d.ChangedNodes, id)
		}
	}
	for id := range old.nodes {
		if _, ok := new.nodes[id]; !ok {
			d.RemovedNodes = append(d.RemovedNodes, id)
		}
	}
	sortIDs(d.AddedNodes)
	sortIDs(d.RemovedNodes)
	sortIDs(d.ChangedNodes)

	// Both policy indexes list their edges in Edges' order: walk them side
	// by side and compare the memoised fingerprints of what each edge binds,
	// which are the content fingerprints check keys are built from.
	oi, ni := old.Index(), new.Index()
	i, j := 0, 0
	for i < len(oi.Edges) || j < len(ni.Edges) {
		switch {
		case j == len(ni.Edges) || i < len(oi.Edges) && edgeLess(oi.Edges[i], ni.Edges[j]):
			d.RemovedEdges = append(d.RemovedEdges, oi.Edges[i])
			i++
		case i == len(oi.Edges) || edgeLess(ni.Edges[j], oi.Edges[i]):
			d.AddedEdges = append(d.AddedEdges, ni.Edges[j])
			j++
		default:
			if oi.Import[i] != ni.Import[j] || oi.Export[i] != ni.Export[j] || oi.Originate[i] != ni.Originate[j] {
				d.ChangedEdges = append(d.ChangedEdges, ni.Edges[j])
			}
			i++
			j++
		}
	}
	return d
}

// edgeLess is the order Edges sorts by.
func edgeLess(a, b Edge) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

// Empty reports whether the diff records no change at all.
func (d *NetworkDiff) Empty() bool {
	return len(d.AddedNodes) == 0 && len(d.RemovedNodes) == 0 && len(d.ChangedNodes) == 0 &&
		len(d.AddedEdges) == 0 && len(d.RemovedEdges) == 0 && len(d.ChangedEdges) == 0
}

// TouchedNodes returns every node the diff mentions — added, removed, or
// changed nodes plus the endpoints of added, removed, or changed edges —
// deduplicated and sorted. This is the "changed routers" set of the delta
// report (callers filter externals as needed).
func (d *NetworkDiff) TouchedNodes() []NodeID {
	seen := make(map[NodeID]struct{})
	add := func(ids ...NodeID) {
		for _, id := range ids {
			seen[id] = struct{}{}
		}
	}
	add(d.AddedNodes...)
	add(d.RemovedNodes...)
	add(d.ChangedNodes...)
	for _, es := range [][]Edge{d.AddedEdges, d.RemovedEdges, d.ChangedEdges} {
		for _, e := range es {
			add(e.From, e.To)
		}
	}
	out := make([]NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sortIDs(out)
	return out
}

// Touches reports whether the diff mentions the given edge or either of its
// endpoints (removed edges count: a check that used to live there is stale).
func (d *NetworkDiff) Touches(e Edge) bool {
	for _, es := range [][]Edge{d.AddedEdges, d.RemovedEdges, d.ChangedEdges} {
		for _, x := range es {
			if x == e {
				return true
			}
		}
	}
	for _, ns := range [][]NodeID{d.AddedNodes, d.RemovedNodes, d.ChangedNodes} {
		for _, id := range ns {
			if id == e.From || id == e.To {
				return true
			}
		}
	}
	return false
}

// String renders a compact summary, e.g. "nodes +1/-0/~2, edges +4/-4/~8".
func (d *NetworkDiff) String() string {
	return fmt.Sprintf("nodes +%d/-%d/~%d, edges +%d/-%d/~%d",
		len(d.AddedNodes), len(d.RemovedNodes), len(d.ChangedNodes),
		len(d.AddedEdges), len(d.RemovedEdges), len(d.ChangedEdges))
}
