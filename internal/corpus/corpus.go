// Package corpus turns the six hand-built registry suites into a scenario
// *corpus*: a declarative member format — graph source × role assignment ×
// policy template — that generates deterministic, seed-reproducible
// networks in the internal/config DSL, each carrying planted-bug ground
// truth.
//
// A corpus member is named by a compact reference
//
//	family:seed[:knob=value,...]
//
// e.g. "ring:42", "waxman:7:size=16,degree=3", "tree:1:depth=3,fanout=2",
// "zoo:5:graph=abilene", or "fattree:3:k=4,bug=no-bogons". The same
// reference is accepted by `lightyear -corpus` and by plan.Network.Corpus
// (so lyserve sessions, deltas, and migrations run over corpus members
// unchanged).
//
// Generation is a pure function of the reference: Member.DSL renders the
// configuration text (the synthesizers use an explicitly seeded PRNG and
// iterate in sorted order), and regenerating a member from the same
// reference is byte-identical. Member.Build parses that text back through
// internal/config — the corpus has no private network constructor, so a
// generated config on disk and a generated config in memory are the same
// artifact.
//
// Every member follows one policy template, "hygiene": each external peer
// session imports through the §6.1 eleven-filter map (deny bogons, class-E,
// the default route, reused space, long prefixes, long AS paths, private
// and self ASNs; then clear communities and normalize local-pref/MED).
// That makes the registry's wan-peering suite — FromPeer ⇒ Q at every
// router — instantiate across any corpus member, which is the property
// template layer: one suite, every topology.
//
// Planted bugs reuse netgen.MutationSpec: Bug names one peering property,
// and the injector removes exactly the deny clause that enforces it from
// one seed-chosen peer session (kind "remove-import-clause"). The returned
// GroundTruth records the mutation, the session, the property that must
// now fail, and the ten that must keep passing — so a sweep can assert
// detection, not just run.
package corpus

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"lightyear/internal/config"
	"lightyear/internal/netgen"
	"lightyear/internal/telemetry"
	"lightyear/internal/topology"
)

// PropertySuite is the registry suite every corpus member is verified
// under: the eleven peering properties at every router.
const PropertySuite = "wan-peering"

// Member is one corpus entry: a graph family, the seed, and the family's
// knobs. The zero values of the knobs select family defaults (see
// Families); GraphText carries an out-of-band TopologyZoo-style graph for
// the zoo family and never appears in a reference.
type Member struct {
	Family  string `json:"family"`
	Seed    int64  `json:"seed"`
	Size    int    `json:"size,omitempty"`    // ring/waxman: router count
	Degree  int    `json:"degree,omitempty"`  // waxman: target mean degree
	Depth   int    `json:"depth,omitempty"`   // tree: levels below the root
	Fanout  int    `json:"fanout,omitempty"`  // tree: children per node
	K       int    `json:"k,omitempty"`       // fattree: pod count (even)
	Peers   int    `json:"peers,omitempty"`   // peer sessions per edge router
	Regions int    `json:"regions,omitempty"` // region tags spread over routers
	Graph   string `json:"graph,omitempty"`   // zoo: builtin graph name
	Bug     string `json:"bug,omitempty"`     // planted peering-property bug

	// GraphText is inline GraphML or edge-list text for the zoo family,
	// supplied by hosts with filesystem access (lightyear -corpus-graph).
	// It is not part of the reference syntax and not serializable in
	// plan documents; inline the emitted DSL instead.
	GraphText string `json:"-"`
}

// GroundTruth is what a planted bug promises: the mutation that was
// applied, the session it edited, the property that must fail, and the
// properties that must keep passing.
type GroundTruth struct {
	Mutation netgen.MutationSpec `json:"mutation"`
	Session  topology.Edge       `json:"session"`
	Property string              `json:"property"`
	MustPass []string            `json:"must_pass"`
}

// Parse parses a member reference: family:seed[:knob=value,...].
func Parse(ref string) (Member, error) { return ParseWithGraphText(ref, "") }

// ParseWithGraphText parses a reference with an out-of-band graph source
// attached before validation, so hosts with filesystem access (lightyear
// -corpus-graph) can reference zoo graphs that are not builtins.
func ParseWithGraphText(ref, graphText string) (Member, error) {
	parts := strings.SplitN(ref, ":", 3)
	if len(parts) < 2 {
		return Member{}, fmt.Errorf("corpus: bad reference %q (want family:seed[:knob=value,...])", ref)
	}
	m := Member{Family: parts[0]}
	if _, ok := familyIndex[m.Family]; !ok {
		return Member{}, fmt.Errorf("corpus: unknown family %q (have: %s)", m.Family, strings.Join(FamilyNames(), ", "))
	}
	seed, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return Member{}, fmt.Errorf("corpus: bad seed %q in %q", parts[1], ref)
	}
	m.Seed = seed
	m.GraphText = graphText
	if len(parts) == 3 && parts[2] != "" {
		for _, kv := range strings.Split(parts[2], ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Member{}, fmt.Errorf("corpus: bad knob %q in %q (want knob=value)", kv, ref)
			}
			if err := m.setKnob(key, val); err != nil {
				return Member{}, err
			}
		}
	}
	return m, m.validate()
}

func (m *Member) setKnob(key, val string) error {
	setInt := func(dst *int) error {
		v, err := strconv.Atoi(val)
		if err != nil || v < 0 {
			return fmt.Errorf("corpus: knob %s=%q must be a non-negative integer", key, val)
		}
		*dst = v
		return nil
	}
	switch key {
	case "size":
		return setInt(&m.Size)
	case "degree":
		return setInt(&m.Degree)
	case "depth":
		return setInt(&m.Depth)
	case "fanout":
		return setInt(&m.Fanout)
	case "k":
		return setInt(&m.K)
	case "peers":
		return setInt(&m.Peers)
	case "regions":
		return setInt(&m.Regions)
	case "graph":
		m.Graph = val
		return nil
	case "bug":
		m.Bug = val
		return nil
	}
	return fmt.Errorf("corpus: unknown knob %q (have: size, degree, depth, fanout, k, peers, regions, graph, bug)", key)
}

// validate rejects references that cannot build, before any generation.
func (m Member) validate() error {
	switch m.Family {
	case "zoo":
		if m.Graph == "" && m.GraphText == "" {
			return fmt.Errorf("corpus: zoo members need graph=<name> (builtin: %s) or inline graph text",
				strings.Join(BuiltinGraphNames(), ", "))
		}
		if m.Graph != "" && builtinGraphs[m.Graph] == "" && m.GraphText == "" {
			return fmt.Errorf("corpus: unknown builtin graph %q (have: %s)", m.Graph, strings.Join(BuiltinGraphNames(), ", "))
		}
	case "fattree":
		if m.K%2 != 0 {
			return fmt.Errorf("corpus: fattree k must be even, got %d", m.K)
		}
	}
	if m.Bug != "" {
		if _, err := bugClause(m.Bug); err != nil {
			return err
		}
	}
	routers, sessions := m.size() // refused before anything is synthesized
	return netgen.CheckSourceSize("corpus member "+m.Ref(), routers, sessions)
}

// Ref renders the canonical reference: family:seed with the non-default
// knobs in fixed order. Parse(m.Ref()) round-trips.
func (m Member) Ref() string {
	var knobs []string
	add := func(k string, v int) {
		if v != 0 {
			knobs = append(knobs, fmt.Sprintf("%s=%d", k, v))
		}
	}
	add("size", m.Size)
	add("degree", m.Degree)
	add("depth", m.Depth)
	add("fanout", m.Fanout)
	add("k", m.K)
	add("peers", m.Peers)
	add("regions", m.Regions)
	if m.Graph != "" {
		knobs = append(knobs, "graph="+m.Graph)
	}
	if m.Bug != "" {
		knobs = append(knobs, "bug="+m.Bug)
	}
	ref := fmt.Sprintf("%s:%d", m.Family, m.Seed)
	if len(knobs) > 0 {
		ref += ":" + strings.Join(knobs, ",")
	}
	return ref
}

// Knob describes one family parameter for enumeration surfaces
// (lightyear -list, lightyear -corpus list).
type Knob struct {
	Name    string
	Default string
	Desc    string
}

// Family is the enumerable metadata of one synthesizer family.
type Family struct {
	Name  string
	Desc  string
	Knobs []Knob
}

var families = []Family{
	{
		Name: "ring",
		Desc: "cycle of edge routers, each with external peer sessions",
		Knobs: []Knob{
			{"size", "8", "number of routers in the cycle"},
			{"peers", "1", "peer sessions per router"},
			{"regions", "0", "spread region tags over N regions"},
		},
	},
	{
		Name: "tree",
		Desc: "rooted fanout-ary aggregation tree; leaves are edge routers with peers",
		Knobs: []Knob{
			{"depth", "2", "levels below the root"},
			{"fanout", "2", "children per node"},
			{"peers", "1", "peer sessions per edge router"},
			{"regions", "0", "spread region tags over N regions"},
		},
	},
	{
		Name: "fattree",
		Desc: "k-pod fat-tree (core/aggregation/edge); edge routers peer externally",
		Knobs: []Knob{
			{"k", "4", "pod count (even)"},
			{"peers", "1", "peer sessions per edge router"},
			{"regions", "0", "spread region tags over N regions"},
		},
	},
	{
		Name: "waxman",
		Desc: "random Waxman graph over a unit square, roles ranked by degree",
		Knobs: []Knob{
			{"size", "12", "number of routers"},
			{"degree", "3", "target mean degree"},
			{"peers", "1", "peer sessions per edge router"},
			{"regions", "0", "partition the square into N region bands"},
		},
	},
	{
		Name: "zoo",
		Desc: "imported TopologyZoo-style graph (GraphML or edge list), roles ranked by degree",
		Knobs: []Knob{
			{"graph", "(required)", "builtin graph name (abilene, nsfnet) or -corpus-graph file"},
			{"peers", "1", "peer sessions per edge router"},
			{"regions", "0", "spread region tags over N regions"},
		},
	},
}

var familyIndex = func() map[string]int {
	idx := make(map[string]int, len(families))
	for i, f := range families {
		idx[f.Name] = i
	}
	return idx
}()

// Families enumerates the synthesizer families and their knobs.
func Families() []Family { return append([]Family(nil), families...) }

// FamilyNames lists the family names in registration order.
func FamilyNames() []string {
	out := make([]string, len(families))
	for i, f := range families {
		out[i] = f.Name
	}
	return out
}

// BugNames lists the plantable bug kinds: the peering properties whose
// enforcing deny clause the injector can remove.
func BugNames() []string {
	out := make([]string, len(bugClauses))
	for i, b := range bugClauses {
		out[i] = b.property
	}
	return out
}

// bugClauses maps each plantable bug to the import-map clause that
// enforces it. Order mirrors the clause order of the hygiene template
// (sequence numbers 10, 20, ... in emit.go); the three normalization
// properties of the suite live in the final permit clause's actions and
// cannot be broken by removing a deny, so they are not plantable.
var bugClauses = []struct {
	property string
	seq      int
}{
	{"no-bogons", 10},
	{"no-class-e", 20},
	{"no-default-route", 30},
	{"no-reused-space", 40},
	{"max-prefix-length", 50},
	{"max-as-path-length", 60},
	{"no-private-asn", 70},
	{"no-self-asn", 80},
}

func bugClause(property string) (int, error) {
	for _, b := range bugClauses {
		if b.property == property {
			return b.seq, nil
		}
	}
	return 0, fmt.Errorf("corpus: unknown bug %q (have: %s)", property, strings.Join(BugNames(), ", "))
}

// mustPassProperties returns the suite's property names minus the planted
// one — the "which checks must pass" half of the ground truth.
func mustPassProperties(planted string) []string {
	var out []string
	for _, p := range netgen.PeeringProperties(3) {
		if p.Name != planted {
			out = append(out, p.Name)
		}
	}
	return out
}

// Plant resolves the member's planted bug without building the network:
// the seed-chosen peer session and the MutationSpec that removes the
// property's deny clause there. Returns (nil, nil) for a clean member.
func (m Member) Plant() (*GroundTruth, error) {
	if m.Bug == "" {
		return nil, nil
	}
	seq, err := bugClause(m.Bug)
	if err != nil {
		return nil, err
	}
	g, err := m.synthesize()
	if err != nil {
		return nil, err
	}
	sessions := g.peerSessions()
	if len(sessions) == 0 {
		return nil, fmt.Errorf("corpus: %s has no peer sessions to plant %q in", m.Ref(), m.Bug)
	}
	// The site choice draws from its own stream (seed × bug name) so the
	// clean topology is identical with and without the bug.
	h := m.Seed
	for _, c := range m.Bug {
		h = h*131 + int64(c)
	}
	site := sessions[rand.New(rand.NewSource(h)).Intn(len(sessions))]
	return &GroundTruth{
		Mutation: netgen.MutationSpec{
			Kind: netgen.MutRemoveImportClause,
			From: site.From,
			To:   site.To,
			Seq:  seq,
		},
		Session:  site,
		Property: m.Bug,
		MustPass: mustPassProperties(m.Bug),
	}, nil
}

// DSL renders the member's configuration text. The output is a pure
// function of the member (byte-identical across calls and processes); a
// planted bug appears as the enforcing clause being absent, exactly the
// state Build produces by mutation.
func (m Member) DSL() (string, error) {
	g, err := m.synthesize()
	if err != nil {
		return "", err
	}
	gt, err := m.Plant()
	if err != nil {
		return "", err
	}
	return emitDSL(m, g, gt), nil
}

// Build generates the member's network: the clean configuration is
// emitted and parsed back through internal/config, then any planted bug
// is applied as a netgen.MutationSpec (clone-isolated, like a migration
// step). The returned ground truth is nil for clean members.
func (m Member) Build() (*topology.Network, *GroundTruth, error) {
	g, err := m.synthesize()
	if err != nil {
		return nil, nil, err
	}
	n, err := config.Parse(emitDSL(m, g, nil))
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: %s: generated config does not parse: %w", m.Ref(), err)
	}
	gt, err := m.Plant()
	if err != nil {
		return nil, nil, err
	}
	if gt != nil {
		n, err = netgen.ApplyMutation(n, gt.Mutation)
		if err != nil {
			return nil, nil, fmt.Errorf("corpus: %s: planting %q: %w", m.Ref(), m.Bug, err)
		}
		observePlanted(m.Bug)
	}
	observeGenerated(m.Family)
	return n, gt, nil
}

// Telemetry: per-family generation and per-property planting counters,
// shared by every host through one process-wide recorder.

var (
	telMu  sync.RWMutex
	telRec *telemetry.Recorder
)

// SetTelemetry installs the process recorder corpus generation reports to
// (nil disables; emission is nil-safe).
func SetTelemetry(rec *telemetry.Recorder) {
	telMu.Lock()
	telRec = rec
	telMu.Unlock()
}

func recorder() *telemetry.Recorder {
	telMu.RLock()
	defer telMu.RUnlock()
	return telRec
}

func observeGenerated(family string) {
	recorder().Counter("lightyear_corpus_generated_total",
		"corpus members generated, by synthesizer family", "family").With(family).Inc()
}

func observePlanted(property string) {
	recorder().Counter("lightyear_corpus_bugs_planted_total",
		"planted corpus bugs, by broken property", "property").With(property).Inc()
}

// DefaultRoster enumerates the standard sweep: ≥30 members interleaved
// across all five families (so any prefix of the roster still covers many
// families), seeds derived from the given base seed, and a planted bug on
// every member cycling through the eight plantable properties.
func DefaultRoster(seed int64) []Member {
	var perFamily [][]Member
	add := func(ms ...Member) { perFamily = append(perFamily, ms) }

	ring := func(i int, size int) Member {
		return Member{Family: "ring", Seed: seed + int64(i), Size: size, Peers: 1 + i%2}
	}
	add(ring(0, 6), ring(1, 9), ring(2, 12), ring(3, 8), ring(4, 10), ring(5, 14), ring(6, 7))
	tree := func(i, depth, fanout int) Member {
		return Member{Family: "tree", Seed: seed + int64(i), Depth: depth, Fanout: fanout}
	}
	add(tree(0, 2, 2), tree(1, 2, 3), tree(2, 3, 2), tree(3, 2, 4), tree(4, 3, 3), tree(5, 4, 2), tree(6, 2, 2))
	ft := func(i, k, peers int) Member {
		return Member{Family: "fattree", Seed: seed + int64(i), K: k, Peers: peers}
	}
	add(ft(0, 4, 1), ft(1, 4, 2), ft(2, 6, 1), ft(3, 4, 1), ft(4, 6, 2))
	wax := func(i, size, degree int) Member {
		return Member{Family: "waxman", Seed: seed + int64(i), Size: size, Degree: degree, Regions: i % 3}
	}
	add(wax(0, 10, 3), wax(1, 14, 3), wax(2, 18, 4), wax(3, 12, 2), wax(4, 16, 3), wax(5, 20, 4), wax(6, 11, 3))
	zoo := func(i int, graph string) Member {
		return Member{Family: "zoo", Seed: seed + int64(i), Graph: graph, Peers: 1 + i%2}
	}
	add(zoo(0, "abilene"), zoo(1, "nsfnet"), zoo(2, "abilene"), zoo(3, "nsfnet"))

	// Interleave round-robin and cycle the planted bug.
	var out []Member
	for i := 0; ; i++ {
		done := true
		for _, fam := range perFamily {
			if i < len(fam) {
				out = append(out, fam[i])
				done = false
			}
		}
		if done {
			break
		}
	}
	bugs := BugNames()
	for i := range out {
		out[i].Bug = bugs[i%len(bugs)]
	}
	return out
}

// sortedKeys is a tiny helper shared by the emitters.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
