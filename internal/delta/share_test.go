package delta_test

import (
	"fmt"
	"slices"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// A run generates the edge checks of problems that share a network and an
// edge frame once, and submits them with each problem's own implication
// check. The tests below hold what every problem submits to the problem's
// own enumeration (core.SafetyProblem.Checks): the same kinds, locations,
// keys and descriptions, in the same order, less the checks whose keys
// the last run of a verifier already decided.

// shareNet is a network every registered safety suite is posed on.
type shareNet struct {
	name   string
	n      *topology.Network
	params netgen.SuiteParams
}

func shareNets(t *testing.T) []shareNet {
	t.Helper()
	m, err := corpus.Parse("ring:1:size=4")
	if err != nil {
		t.Fatal(err)
	}
	ring, _, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	return []shareNet{
		{"wan", netgen.WAN(twoRegionWAN, netgen.WANBugs{}), netgen.SuiteParams{Regions: 2}},
		{"fig1", netgen.Fig1(netgen.Fig1Options{}), netgen.SuiteParams{}},
		{"ring", ring, netgen.SuiteParams{}},
	}
}

var twoRegionWAN = netgen.WANParams{Regions: 2, RoutersPerRegion: 2, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 2}

// safetySource poses the safety problems of every registered suite, or of
// the named ones.
type safetySource struct {
	params netgen.SuiteParams
	suites []string
}

func (s safetySource) Label() string { return "safety" }

func (s safetySource) Problems(n *topology.Network) []netgen.Problem {
	var out []netgen.Problem
	for _, suite := range netgen.Suites() {
		if len(s.suites) > 0 && !slices.Contains(s.suites, suite.Name) {
			continue
		}
		for _, p := range suite.Build(n, s.params) {
			if p.Safety != nil {
				out = append(out, p)
			}
		}
	}
	return out
}

// tap records what a run enumerates and submits.
type tap struct {
	enumerated int
	submitted  map[int][]string
}

// hooks resets the tap and returns hooks that fill it.
func (tp *tap) hooks() delta.Hooks {
	tp.enumerated, tp.submitted = 0, make(map[int][]string)
	return delta.Tap(delta.Hooks{}, func() { tp.enumerated++ },
		func(i int, checks []core.Check) { tp.submitted[i] = checkIDs(checks) })
}

func checkIDs(checks []core.Check) []string {
	out := make([]string, len(checks))
	for i, c := range checks {
		out[i] = fmt.Sprintf("%s|%s|%s|%s", c.Kind, c.Loc, c.Key(), c.Desc)
	}
	return out
}

// own is what problem p must submit: its own checks, less those whose
// keys are decided.
func own(p netgen.Problem, decided map[string]bool) []string {
	var keep []core.Check
	for _, c := range p.Safety.Checks(core.Options{}) {
		if !decided[c.Key()] {
			keep = append(keep, c)
		}
	}
	return checkIDs(keep)
}

// keysOf is every key the problems pose.
func keysOf(problems []netgen.Problem) map[string]bool {
	keys := make(map[string]bool)
	for _, p := range problems {
		for _, c := range p.Safety.Checks(core.Options{}) {
			keys[c.Key()] = true
		}
	}
	return keys
}

// frameRuns counts the runs of consecutive problems with one network and
// one edge frame — how many times a run must enumerate edges — and the
// distinct frames.
func frameRuns(problems []netgen.Problem) (runs, frames int) {
	type at struct {
		n     *topology.Network
		frame spec.Fingerprint
	}
	seen := make(map[at]bool)
	var last at
	for _, p := range problems {
		cur := at{p.Safety.Network, p.Safety.Frame()}
		if cur != last {
			runs++
		}
		last, seen[cur] = cur, true
	}
	return runs, len(seen)
}

// sameSubmissions compares what each problem submitted with its own checks.
func sameSubmissions(t *testing.T, label string, tp *tap, problems []netgen.Problem, decided map[string]bool) {
	t.Helper()
	for i, p := range problems {
		got, want := tp.submitted[i], own(p, decided)
		if !slices.Equal(got, want) {
			for k := range min(len(got), len(want)) {
				if got[k] != want[k] {
					t.Fatalf("%s: %s: submitted %d checks, its own are %d; check %d is\n  %s\nwant\n  %s",
						label, p.Name, len(got), len(want), k, got[k], want[k])
				}
			}
			t.Fatalf("%s: %s: submitted %d checks, its own are %d", label, p.Name, len(got), len(want))
		}
	}
}

// TestSharedEdgeChecksInOneShotRuns: every registered safety suite on the
// 2-region WAN, Figure 1 and a corpus ring, through the one-shot run plans
// execute with; then the clean and the missing-bogon WAN's peering
// problems interleaved, so that consecutive problems share a frame but not
// a network.
func TestSharedEdgeChecksInOneShotRuns(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	var tp tap
	run := func(label string, problems []netgen.Problem) *delta.Result {
		t.Helper()
		res, err := delta.Run(eng, problems, engine.Workload{}, nil, tp.hooks())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameSubmissions(t, label, &tp, problems, nil)
		if runs, _ := frameRuns(problems); tp.enumerated != runs {
			t.Errorf("%s: edges enumerated %d times for %d runs of problems sharing a frame", label, tp.enumerated, runs)
		}
		return res
	}
	for _, sn := range shareNets(t) {
		problems := safetySource{params: sn.params}.Problems(sn.n)
		run(sn.name, problems)
		// Suites emit problems grouped by frame: a run enumerates each
		// frame once.
		if runs, frames := frameRuns(problems); runs != frames {
			t.Errorf("%s: %d runs of problems sharing a frame, %d frames", sn.name, runs, frames)
		}
	}

	peering := safetySource{params: netgen.SuiteParams{Regions: 2}, suites: []string{"wan-peering"}}
	clean := peering.Problems(netgen.WAN(twoRegionWAN, netgen.WANBugs{}))
	if run("wan-peering", clean); tp.enumerated != 11 {
		t.Errorf("wan-peering: edges enumerated %d times, want once per peering property: 11", tp.enumerated)
	}
	bug := peering.Problems(netgen.WAN(twoRegionWAN, netgen.WANBugs{MissingBogonFilter: true}))
	var both []netgen.Problem
	for i := range clean {
		both = append(both, clean[i], bug[i])
	}
	if clean[0].Safety.Frame() != bug[0].Safety.Frame() {
		t.Fatal("the clean and missing-bogon WANs pose different frames")
	}
	if res := run("clean and missing-bogon", both); res.OK {
		t.Error("clean and missing-bogon: every problem passed")
	}
}

// TestSharedEdgeChecksInVerifierRuns: the same suites through a verifier's
// baseline and an update that edits one external import — in failures-only
// mode a restricted update, regenerating only the edited edge — in both
// results modes. An update submits a problem's checks whose keys the
// baseline did not pose.
func TestSharedEdgeChecksInVerifierRuns(t *testing.T) {
	for _, sn := range shareNets(t) {
		var edit netgen.MutationSpec
		for _, e := range sn.n.Index().Edges {
			if sn.n.IsExternal(e.From) && !sn.n.IsExternal(e.To) {
				edit = netgen.MutationSpec{Kind: netgen.MutInsertImportDeny, From: e.From, To: e.To, Seq: 1, Match: "community:100:1"}
				break
			}
		}
		next, err := netgen.ApplyMutation(sn.n, edit)
		if err != nil {
			t.Fatalf("%s: %s: %v", sn.name, edit, err)
		}
		source := safetySource{params: sn.params}
		for _, results := range []engine.ResultsMode{engine.ResultsFailures, engine.ResultsAll} {
			label := sn.name + ", results=" + string(results)
			eng := engine.New(engine.Options{Workers: 2})
			t.Cleanup(eng.Close)
			v := delta.NewVerifierFor(eng, source)
			v.SetWorkload(engine.Workload{SubmitOptions: engine.SubmitOptions{Results: results}})
			var tp tap
			v.SetHooks(tp.hooks())
			before := source.Problems(sn.n)
			if _, err := v.Baseline(sn.n); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameSubmissions(t, label+", baseline", &tp, before, nil)
			if runs, _ := frameRuns(before); tp.enumerated != runs {
				t.Errorf("%s, baseline: edges enumerated %d times for %d frames", label, tp.enumerated, runs)
			}

			v.SetHooks(tp.hooks())
			after := source.Problems(next)
			res, err := v.Update(next)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameSubmissions(t, label+", update", &tp, after, keysOf(before))
			if runs, _ := frameRuns(after); tp.enumerated != runs {
				t.Errorf("%s, update: edges enumerated %d times for %d frames", label, tp.enumerated, runs)
			}
			for i, p := range after {
				if got, want := res.Problems[i].Checks, len(p.Safety.Checks(core.Options{})); got != want {
					t.Errorf("%s, update: %s counts %d checks, poses %d", label, p.Name, got, want)
				}
			}
			if restricted := v.Served() > 0; restricted != (results == engine.ResultsFailures) {
				t.Errorf("%s, update: served %d problems from an index", label, v.Served())
			}
		}
	}
}
