package corpus

import (
	"context"
	"sort"
	"strings"
	"testing"

	"lightyear/internal/config"
	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/telemetry"
	"lightyear/internal/topology"
)

// oneOfEach returns one small member per family, seeded distinctly.
func oneOfEach() []Member {
	return []Member{
		{Family: "ring", Seed: 11, Size: 6},
		{Family: "tree", Seed: 12, Depth: 2, Fanout: 2},
		{Family: "fattree", Seed: 13, K: 4},
		{Family: "waxman", Seed: 14, Size: 10, Degree: 3, Regions: 2},
		{Family: "zoo", Seed: 15, Graph: "abilene"},
	}
}

func TestParseRefRoundTrip(t *testing.T) {
	for _, m := range oneOfEach() {
		m.Bug = "no-bogons"
		got, err := Parse(m.Ref())
		if err != nil {
			t.Fatalf("Parse(%q): %v", m.Ref(), err)
		}
		if got != m {
			t.Errorf("round trip %q: got %+v want %+v", m.Ref(), got, m)
		}
	}
}

func TestParseRejectsBadRefs(t *testing.T) {
	for _, ref := range []string{
		"",
		"ring",
		"nosuch:1",
		"ring:x",
		"ring:1:bad",
		"ring:1:size=-2",
		"ring:1:nope=3",
		"ring:1:bug=nosuch",
		"zoo:1",
		"zoo:1:graph=nosuch",
		"fattree:1:k=3",
	} {
		if _, err := Parse(ref); err == nil {
			t.Errorf("Parse(%q): want error, got none", ref)
		}
	}
}

func TestDSLDeterministicAndParses(t *testing.T) {
	for _, m := range oneOfEach() {
		for _, bug := range []string{"", "no-reused-space"} {
			m.Bug = bug
			a, err := m.DSL()
			if err != nil {
				t.Fatalf("%s: DSL: %v", m.Ref(), err)
			}
			b, err := m.DSL()
			if err != nil {
				t.Fatalf("%s: DSL (second call): %v", m.Ref(), err)
			}
			if a != b {
				t.Fatalf("%s: DSL not byte-identical across calls", m.Ref())
			}
			n, err := config.Parse(a)
			if err != nil {
				t.Fatalf("%s: emitted DSL does not parse: %v", m.Ref(), err)
			}
			if err := n.Validate(); err != nil {
				t.Fatalf("%s: emitted network invalid: %v", m.Ref(), err)
			}
			if len(n.RoutersByRole("edge")) == 0 {
				t.Errorf("%s: no edge routers", m.Ref())
			}
			if len(n.Externals()) == 0 {
				t.Errorf("%s: no peer sessions", m.Ref())
			}
		}
	}
}

// The planted state must be reachable both ways: parsing the bugged DSL
// and mutating the clean network must agree on the semantic fingerprint —
// the injector genuinely is a MutationSpec application.
func TestBuildMatchesEmittedDSL(t *testing.T) {
	for _, m := range oneOfEach() {
		m.Bug = "no-class-e"
		n, gt, err := m.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", m.Ref(), err)
		}
		if gt == nil || gt.Property != "no-class-e" || len(gt.MustPass) != 10 {
			t.Fatalf("%s: bad ground truth %+v", m.Ref(), gt)
		}
		if gt.Mutation.Kind != netgen.MutRemoveImportClause || gt.Mutation.Seq != 20 {
			t.Fatalf("%s: unexpected mutation %v", m.Ref(), gt.Mutation)
		}
		text, err := m.DSL()
		if err != nil {
			t.Fatalf("%s: DSL: %v", m.Ref(), err)
		}
		parsed, err := config.Parse(text)
		if err != nil {
			t.Fatalf("%s: bugged DSL does not parse: %v", m.Ref(), err)
		}
		if parsed.Fingerprint() != n.Fingerprint() {
			t.Errorf("%s: mutated network and emitted bugged DSL disagree", m.Ref())
		}
	}
}

func TestBuildSeedSensitivity(t *testing.T) {
	a := Member{Family: "waxman", Seed: 1, Size: 12}
	b := Member{Family: "waxman", Seed: 2, Size: 12}
	da, err := a.DSL()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.DSL()
	if err != nil {
		t.Fatal(err)
	}
	if da == db {
		t.Error("waxman members with different seeds emitted identical configs")
	}
}

func TestDefaultRoster(t *testing.T) {
	roster := DefaultRoster(7)
	if len(roster) < 30 {
		t.Fatalf("roster has %d members, want >= 30", len(roster))
	}
	fams := map[string]bool{}
	prefixFams := map[string]bool{}
	for i, m := range roster {
		fams[m.Family] = true
		if i < 10 {
			prefixFams[m.Family] = true
		}
		if m.Bug == "" {
			t.Errorf("roster member %s has no planted bug", m.Ref())
		}
		if _, err := Parse(m.Ref()); err != nil {
			t.Errorf("roster member %d: %v", i, err)
		}
	}
	if len(fams) < 5 {
		t.Errorf("roster covers %d families, want 5", len(fams))
	}
	// The roster interleaves its families, so even a 10-member prefix
	// covers at least 3.
	if len(prefixFams) < 3 {
		t.Errorf("first 10 roster members cover %d families, want >= 3", len(prefixFams))
	}
}

// failingReports runs the full wan-peering property set on a fresh engine,
// every problem submitted before any is awaited, and returns the reports of
// the failing problems by name.
func failingReports(t *testing.T, n *topology.Network) map[string]*core.Report {
	t.Helper()
	suite, ok := netgen.Lookup(PropertySuite)
	if !ok {
		t.Fatalf("suite %q not registered", PropertySuite)
	}
	eng := engine.New(engine.Options{})
	defer eng.Close()
	problems := suite.Problems(n, netgen.SuiteParams{}, netgen.Scope{})
	jobs := make([]*engine.Job, len(problems))
	for i, p := range problems {
		j, err := eng.Submit(context.Background(), engine.Workload{Safety: p.Safety})
		if err != nil {
			t.Fatalf("submit %s: %v", p.Name, err)
		}
		jobs[i] = j
	}
	failing := map[string]*core.Report{}
	for i, j := range jobs {
		if rep := j.Wait(); !rep.OK() {
			failing[problems[i].Name] = rep
		}
	}
	return failing
}

// verifySuite runs the full wan-peering property set and returns the
// failing problem names.
func verifySuite(t *testing.T, n *topology.Network) []string {
	t.Helper()
	var names []string
	for name := range failingReports(t, n) {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func TestCleanMembersVerify(t *testing.T) {
	for _, m := range oneOfEach() {
		n, gt, err := m.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Ref(), err)
		}
		if gt != nil {
			t.Fatalf("%s: clean member returned ground truth", m.Ref())
		}
		if failing := verifySuite(t, n); len(failing) > 0 {
			t.Errorf("%s: clean member fails %v", m.Ref(), failing)
		}
	}
}

// Planted bugs must be detected as exactly their ground truth: every
// failing problem belongs to the planted property, and at least one fails.
func TestPlantedBugsDetectedExactly(t *testing.T) {
	bugs := BugNames()
	for i, m := range oneOfEach() {
		m.Bug = bugs[i%len(bugs)]
		n, gt, err := m.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Ref(), err)
		}
		failing := verifySuite(t, n)
		if len(failing) == 0 {
			t.Errorf("%s: planted %s went undetected", m.Ref(), gt.Property)
			continue
		}
		for _, name := range failing {
			if !strings.HasPrefix(name, gt.Property+"@") {
				t.Errorf("%s: unexpected failure %s (planted %s)", m.Ref(), name, gt.Property)
			}
		}
	}
}

// TestDefaultRosterSweep grades the whole default roster against its ground
// truth: every planted bug is detected, only problems of the planted
// property fail, and every failing check is located on the session the bug
// was planted on — no check is blamed at the wrong location. Every member
// regenerates byte-identically, twice and through its reference, and one
// clean member per family survives a property-preserving fuzz walk.
func TestDefaultRosterSweep(t *testing.T) {
	const seed = 7
	fuzzed := map[string]bool{}
	for _, m := range DefaultRoster(seed) {
		text, err := m.DSL()
		if err != nil {
			t.Fatalf("%s: %v", m.Ref(), err)
		}
		if again, err := m.DSL(); err != nil || again != text {
			t.Errorf("%s: regeneration is not byte-identical (err %v)", m.Ref(), err)
		}
		rt, err := Parse(m.Ref())
		if err != nil {
			t.Fatalf("%s: %v", m.Ref(), err)
		}
		if again, err := rt.DSL(); err != nil || again != text {
			t.Errorf("%s: the reference round trip regenerates a different config (err %v)", m.Ref(), err)
		}

		n, gt, err := m.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Ref(), err)
		}
		if gt == nil {
			t.Fatalf("%s: roster member plants no bug", m.Ref())
		}
		failing := failingReports(t, n)
		if len(failing) == 0 {
			t.Errorf("%s: planted %s went undetected", m.Ref(), gt.Property)
		}
		for name, rep := range failing {
			if !strings.HasPrefix(name, gt.Property+"@") {
				t.Errorf("%s: %s fails, but the planted bug is %s", m.Ref(), name, gt.Property)
			}
			for _, r := range rep.Results {
				if !r.OK && (!r.Loc.IsEdge() || r.Loc.Edge() != gt.Session) {
					t.Errorf("%s: %s blames %s; the bug is on %s", m.Ref(), name, r.Loc, gt.Session)
				}
			}
		}

		if !fuzzed[m.Family] {
			fuzzed[m.Family] = true
			clean := m
			clean.Bug = ""
			cn, _, err := clean.Build()
			if err != nil {
				t.Fatalf("%s: %v", clean.Ref(), err)
			}
			res, err := Fuzz(cn, seed, 4)
			if err != nil {
				t.Fatalf("%s: fuzz: %v", clean.Ref(), err)
			}
			if broken := verifySuite(t, res.Network); len(broken) > 0 {
				t.Errorf("%s: %d property-preserving mutations broke %v", clean.Ref(), len(res.Trail), broken)
			}
		}
	}
	if len(fuzzed) < 5 {
		t.Errorf("fuzz soak covered %d families, want 5", len(fuzzed))
	}
}

func TestFuzzPreservesPropertiesAndInput(t *testing.T) {
	m := Member{Family: "ring", Seed: 3, Size: 5}
	n, _, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	before := n.Fingerprint()
	res, err := Fuzz(n, 99, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trail) != 6 {
		t.Fatalf("fuzz trail has %d steps, want 6", len(res.Trail))
	}
	// A clone renders n afresh: n's memoised Fingerprint would not see an
	// in-place edit of a route map or node it shares.
	if n.Clone().Fingerprint() != before {
		t.Fatal("fuzz modified its input network")
	}
	if res.Network.Fingerprint() == before {
		t.Fatal("fuzz produced an unmodified network")
	}
	// Replaying the trail on the original input reproduces the state.
	replay := n
	for _, spec := range res.Trail {
		replay, err = netgen.ApplyMutation(replay, spec)
		if err != nil {
			t.Fatalf("replaying %v: %v", spec, err)
		}
	}
	if replay.Fingerprint() != res.Network.Fingerprint() {
		t.Fatal("trail replay diverged from fuzz result")
	}
	if failing := verifySuite(t, res.Network); len(failing) > 0 {
		t.Errorf("property-preserving fuzz broke %v", failing)
	}
}

func TestTelemetryCounters(t *testing.T) {
	rec := telemetry.New(0)
	SetTelemetry(rec)
	defer SetTelemetry(nil)
	m := Member{Family: "ring", Seed: 4, Size: 4, Bug: "no-bogons"}
	if _, _, err := m.Build(); err != nil {
		t.Fatal(err)
	}
	gen := rec.Counter("lightyear_corpus_generated_total", "", "family").With("ring").Value()
	if gen != 1 {
		t.Errorf("generated counter = %d, want 1", gen)
	}
	planted := rec.Counter("lightyear_corpus_bugs_planted_total", "", "property").With("no-bogons").Value()
	if planted != 1 {
		t.Errorf("planted counter = %d, want 1", planted)
	}
}
