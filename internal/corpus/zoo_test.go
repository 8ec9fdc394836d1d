package corpus

import (
	"strings"
	"testing"
)

func TestParseEdgeList(t *testing.T) {
	text := `# a comment
Seattle Denver
denver  chicago

Chicago Seattle
`
	nodes, edges, err := ParseGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("got %d nodes %v, want 3", len(nodes), nodes)
	}
	if len(edges) != 3 {
		t.Fatalf("got %d edges, want 3", len(edges))
	}
	for _, id := range nodes {
		if id != strings.ToLower(id) {
			t.Errorf("node id %q not sanitized to lower case", id)
		}
	}
}

func TestParseGraphML(t *testing.T) {
	text := `<?xml version="1.0"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <graph edgedefault="undirected">
    <node id="New York"/>
    <node id="Boston"/>
    <node id="DC"/>
    <edge source="New York" target="Boston"/>
    <edge source="Boston" target="DC"/>
  </graph>
</graphml>`
	nodes, edges, err := ParseGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 || len(edges) != 2 {
		t.Fatalf("got %d nodes / %d edges, want 3 / 2", len(nodes), len(edges))
	}
	found := false
	for _, id := range nodes {
		if id == "new-york" {
			found = true
		}
	}
	if !found {
		t.Errorf(`"New York" not sanitized to "new-york" (nodes: %v)`, nodes)
	}
}

func TestParseGraphErrors(t *testing.T) {
	for _, bad := range []string{
		"",                    // edge list with no edges
		"lonely",              // malformed edge line
		"<graphml></graphml>", // GraphML with no nodes or edges
		"<graphml><edge source=\"a\"/></graphml>", // edge missing target
	} {
		if _, _, err := ParseGraph(bad); err == nil {
			t.Errorf("ParseGraph(%q): want error, got none", bad)
		}
	}
}

func TestBuiltinGraphs(t *testing.T) {
	names := BuiltinGraphNames()
	if len(names) < 2 {
		t.Fatalf("want >= 2 builtin graphs, got %v", names)
	}
	for _, name := range names {
		m := Member{Family: "zoo", Seed: 1, Graph: name}
		n, _, err := m.Build()
		if err != nil {
			t.Fatalf("zoo graph %s: %v", name, err)
		}
		if len(n.Routers()) < 5 {
			t.Errorf("zoo graph %s: only %d routers", name, len(n.Routers()))
		}
	}
}

func TestZooGraphText(t *testing.T) {
	m := Member{Family: "zoo", Seed: 1, Graph: "inline", GraphText: "a b\nb c\nc a\nc d\n"}
	n, _, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Routers()) != 4 {
		t.Fatalf("got %d routers, want 4", len(n.Routers()))
	}
}
