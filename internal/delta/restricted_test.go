package delta_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lightyear/internal/config"
	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/solver"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// The restricted update — a failures-only Update that regenerates only the
// checks on the edges a diff changed and serves every other edge from the
// last run's location index — must be indistinguishable from enumerating
// every check. Each case below runs one sequence of network states through
// two verifiers on engines of their own: one as shipped, one told to
// enumerate in full, and compares every run.

// twins is the restricted verifier and its full-enumeration reference.
type twins struct {
	restricted, full *delta.Verifier
	engines          []*engine.Engine
}

func newTwins(t *testing.T, source delta.ProblemSource) *twins {
	return newTwinsOn(t, source, engine.Options{Workers: 2})
}

func newTwinsOn(t *testing.T, source delta.ProblemSource, opts engine.Options) *twins {
	t.Helper()
	tw := &twins{}
	for i := 0; i < 2; i++ {
		eng := engine.New(opts)
		t.Cleanup(eng.Close)
		v := delta.NewVerifierFor(eng, source)
		v.SetWorkload(engine.Workload{SubmitOptions: engine.SubmitOptions{Results: engine.ResultsFailures}})
		tw.engines = append(tw.engines, eng)
		if i == 0 {
			tw.restricted = v
		} else {
			v.EnumerateInFull()
			tw.full = v
		}
	}
	return tw
}

// run pins states[0] on both and updates both through the rest, comparing
// every run. It returns how many problems each update served from an index,
// and the restricted verifier's results.
func (tw *twins) run(t *testing.T, label string, states []*topology.Network) ([]int, []*delta.Result) {
	t.Helper()
	var served []int
	var results []*delta.Result
	for k, n := range states {
		step := func(v *delta.Verifier) *delta.Result {
			var res *delta.Result
			var err error
			if k == 0 {
				res, err = v.Baseline(n)
			} else {
				res, err = v.Update(n)
			}
			if err != nil {
				t.Fatalf("%s, state %d: %v", label, k, err)
			}
			return res
		}
		got, want := step(tw.restricted), step(tw.full)
		results = append(results, got)
		sameRun(t, fmt.Sprintf("%s, state %d", label, k), got, want)
		if g, w := tw.restricted.ResultCount(), tw.full.ResultCount(); g != w {
			t.Errorf("%s, state %d: %d results retained, full enumeration retains %d", label, k, g, w)
		}
		if k > 0 {
			served = append(served, tw.restricted.Served())
		}
		if tw.full.Served() != 0 {
			t.Fatalf("%s: the reference served problems from an index", label)
		}
	}
	return served, results
}

// sameRun compares everything a run reports except measured durations: the
// Result's fields, every problem's counts, every materialised result's
// identity, verdict, description and witness, and the folded aggregate's
// count and maxima. Solve times are measurements of two different engines.
// So is Solved once a run has undecided checks: an Unknown is never cached,
// so whether a duplicate of it joins the first solve or repeats it depends
// on timing, in either mode.
func sameRun(t *testing.T, label string, got, want *delta.Result) {
	t.Helper()
	g, w := *got, *want
	g.ElapsedNanos, w.ElapsedNanos = 0, 0
	g.Problems, w.Problems = nil, nil
	if g.Unknown > 0 || w.Unknown > 0 {
		g.Solved, w.Solved = 0, 0
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: restricted %+v\nfull %+v", label, g, w)
	}
	if len(got.Problems) != len(want.Problems) {
		t.Fatalf("%s: %d problems, full enumeration %d", label, len(got.Problems), len(want.Problems))
	}
	for i := range got.Problems {
		gp, wp := got.Problems[i], want.Problems[i]
		gr, wr := gp.Report, wp.Report
		gp.Report, wp.Report = nil, nil
		if gp != wp {
			t.Fatalf("%s: problem %d: restricted %+v, full %+v", label, i, gp, wp)
		}
		if (gr == nil) != (wr == nil) {
			t.Fatalf("%s: %s: report present %v, full enumeration %v", label, gp.Name, gr != nil, wr != nil)
		}
		if gr == nil {
			continue
		}
		if gs, ws := reportShape(gr), reportShape(wr); gs != ws {
			t.Fatalf("%s: %s:\nrestricted %s\nfull       %s", label, gp.Name, gs, ws)
		}
	}
}

func reportShape(r *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "checks=%d folded={%d %d %d} ok=%v", r.NumChecks(), r.Folded.Checks, r.Folded.MaxVars, r.Folded.MaxCons, r.OK())
	for _, x := range r.Results {
		fmt.Fprintf(&b, "\n  %s %s %q ok=%v status=%v vars=%d witness=%q", x.Kind, x.Loc, x.Desc.String(), x.OK, x.Status, x.NumVars, x.Counterexample.String())
	}
	return b.String()
}

// walk returns the states a mutation trail passes through, from n.
func walk(t *testing.T, n *topology.Network, trail []netgen.MutationSpec) []*topology.Network {
	t.Helper()
	states := []*topology.Network{n}
	for _, m := range trail {
		next, err := netgen.ApplyMutation(states[len(states)-1], m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		states = append(states, next)
	}
	return states
}

func suiteSource(t *testing.T, name string, p netgen.SuiteParams) delta.ProblemSource {
	t.Helper()
	s, ok := netgen.Lookup(name)
	if !ok {
		t.Fatalf("suite %q not registered", name)
	}
	return delta.SuiteSource(s, p)
}

// TestRestrictedMatchesFullOnCorpusFuzzTrails: every fuzz trail of a short
// roster slice, from the member with its planted bug, so reused failures
// are served with their descriptions.
func TestRestrictedMatchesFullOnCorpusFuzzTrails(t *testing.T) {
	for _, m := range corpus.DefaultRoster(7)[:4] {
		n, _, err := m.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Ref(), err)
		}
		fz, err := corpus.Fuzz(n, 7, 4)
		if err != nil {
			t.Fatalf("%s: %v", m.Ref(), err)
		}
		tw := newTwins(t, suiteSource(t, corpus.PropertySuite, netgen.SuiteParams{}))
		served, results := tw.run(t, m.Ref(), walk(t, n, fz.Trail))
		for k, s := range served {
			if s == 0 || results[k+1].Failures == 0 {
				t.Errorf("%s: update %d (%s) served %d problems from the index and reported %d failures; want both",
					m.Ref(), k+1, fz.Trail[k], s, results[k+1].Failures)
			}
		}
	}
}

// TestRestrictedReSolvesUnknowns: under a one-conflict budget the tree
// member's planted violations stay undecided. Unknown is not retained, so
// every update regenerates those checks where they sit — on edges no fuzz
// step touches — and asks the solver again.
func TestRestrictedReSolvesUnknowns(t *testing.T) {
	m := corpus.DefaultRoster(7)[1]
	n, _, err := m.Build()
	if err != nil {
		t.Fatalf("%s: %v", m.Ref(), err)
	}
	fz, err := corpus.Fuzz(n, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	tw := newTwinsOn(t, suiteSource(t, corpus.PropertySuite, netgen.SuiteParams{}), engine.Options{Workers: 2, Backend: solver.Native(1)})
	served, results := tw.run(t, m.Ref(), walk(t, n, fz.Trail))
	for k, s := range served {
		if r := results[k+1]; s == 0 || r.Unknown == 0 || r.DirtyChecks < r.Unknown {
			t.Errorf("%s: update %d served %d problems, %d unknown, %d dirty; want undecided checks re-solved",
				m.Ref(), k+1, s, r.Unknown, r.DirtyChecks)
		}
	}
}

// TestRestrictedMatchesFullOnEveryMutationKind: each MutationSpec kind on
// Figure 1, under a safety suite (served from the index) and a liveness
// suite (always enumerated in full).
func TestRestrictedMatchesFullOnEveryMutationKind(t *testing.T) {
	trail := []netgen.MutationSpec{
		{Kind: netgen.MutInsertExportDeny, From: "R2", To: "ISP2", Seq: 5, Match: "community:100:1"},
		{Kind: netgen.MutRemoveExportClause, From: "R2", To: "ISP2", Seq: 10},
		{Kind: netgen.MutInsertImportDeny, From: "ISP1", To: "R1", Seq: 15, Match: "test-net-2"},
		{Kind: netgen.MutRemoveImportClause, From: "ISP1", To: "R1", Seq: 20},
		{Kind: netgen.MutTighten, At: "R3"},
	}
	states := walk(t, netgen.Fig1(netgen.Fig1Options{}), trail)
	for _, suite := range []string{"fig1-no-transit", "fig1-liveness"} {
		tw := newTwins(t, suiteSource(t, suite, netgen.SuiteParams{}))
		served, _ := tw.run(t, suite, states)
		for k, s := range served {
			if want := map[bool]int{true: 1, false: 0}[suite == "fig1-no-transit"]; s != want {
				t.Errorf("%s: update %d (%s) served %d problems from the index, want %d", suite, k+1, trail[k], s, want)
			}
		}
	}
}

// TestRestrictedMatchesFullOnMigrateSteps: the Figure 1 migration steps in
// both orders, the reversed one violating the property on its first step.
func TestRestrictedMatchesFullOnMigrateSteps(t *testing.T) {
	steps := netgen.Fig1FilterSwap()
	var forward, reversed []netgen.MutationSpec
	for i := range steps {
		forward = append(forward, steps[i].Mutation)
		reversed = append(reversed, steps[len(steps)-1-i].Mutation)
	}
	for label, trail := range map[string][]netgen.MutationSpec{"forward": forward, "reversed": reversed[1:]} {
		newTwins(t, suiteSource(t, "fig1-no-transit", netgen.SuiteParams{})).run(t, label, walk(t, netgen.Fig1(netgen.Fig1Options{}), trail))
	}
}

// peeringSource is the delta-cli workload's property set narrowed to the
// two properties its edits move — wan-peering's no-bogons and
// max-prefix-length at the four scoped edge routers — so the test solves
// a few thousand checks rather than sixty thousand.
type peeringSource struct{ routers int }

func (s peeringSource) Label() string { return "peering" }

func (s peeringSource) Problems(n *topology.Network) []netgen.Problem {
	var out []netgen.Problem
	for _, prop := range netgen.PeeringProperties(5) {
		if prop.Name != "no-bogons" && prop.Name != "max-prefix-length" {
			continue
		}
		for i := 0; i < s.routers; i++ {
			r := netgen.EdgeRouter(i)
			out = append(out, netgen.Problem{Name: prop.Name + "@" + string(r), Safety: netgen.PeeringProblem(n, r, prop)})
		}
	}
	return out
}

// TestRestrictedMatchesFullOnDeltaCLIEdits: the benchmark's 5-region WAN,
// edited as delta-cli edits it — a peer import's prefix-length filter
// tightened, then another peer import's bogon term dropped — parsed from
// configuration text each time, as the CLI does.
func TestRestrictedMatchesFullOnDeltaCLIEdits(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the 5-region WAN twice")
	}
	src := netgen.WANDSL(netgen.WANParams{Regions: 5, RoutersPerRegion: 4, EdgeRouters: 6, DCsPerRegion: 1, PeersPerEdge: 6}, netgen.WANBugs{})
	edit := func(src, routeMap, from, to string) string {
		i := strings.Index(src, "route-map "+routeMap+" {\n")
		j := i + strings.Index(src[i:], "\n}\n")
		if i < 0 || !strings.Contains(src[i:j], from) {
			t.Fatalf("%s has no %q", routeMap, from)
		}
		return src[:i] + strings.Replace(src[i:j], from, to, 1) + src[j:]
	}
	tightened := edit(src, "peer-import-e0-0", "plen >= 25", "plen >= 24")
	bogonLine := func(src string) string {
		i := strings.Index(src, "route-map peer-import-e1-2 {\n")
		k := i + strings.Index(src[i:], "match prefix-list bogons")
		return src[strings.LastIndexByte(src[:k], '\n') : k+strings.IndexByte(src[k:], '\n')]
	}
	dropped := edit(tightened, "peer-import-e1-2", bogonLine(tightened), "")
	var states []*topology.Network
	for _, text := range []string{src, tightened, dropped} {
		n, err := config.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, n)
	}
	tw := newTwins(t, peeringSource{routers: 4})
	served, results := tw.run(t, "wan", states)
	if served[0] != 8 || served[1] != 8 {
		t.Errorf("updates served %v problems from the index, want all 8 each time", served)
	}
	if n := tw.restricted.Indexes(); n != 2 {
		t.Errorf("%d indexes for 8 problems of 2 properties, want one per edge frame: 2", n)
	}
	if !results[1].OK || results[2].OK {
		t.Errorf("verdicts: tightened ok=%v, bogon term dropped ok=%v; want true, false", results[1].OK, results[2].OK)
	}
}

// frameSource is a problem source whose invariant at an edge no diff
// touches reads a route map elsewhere: R1 -> R3's invariant is named after
// the rendering of ISP1 -> R1's import map. The keys at R1 -> R3 therefore
// move with an edit to ISP1 -> R1, although the diff names only that edge;
// the frame digest sees it, and the update enumerates in full.
type frameSource struct{}

func (frameSource) Label() string { return "frame" }

func (frameSource) Problems(n *topology.Network) []netgen.Problem {
	isp := topology.Edge{From: "ISP1", To: "R1"}
	p := netgen.Fig1NoTransitProblem(n)
	p.Invariants.SetEdge(topology.Edge{From: "R1", To: "R3"}, spec.And(p.Invariants.At(n, core.AtEdge(topology.Edge{From: "R1", To: "R3"})),
		spec.Named(n.Import(isp).String(), spec.True())))
	return []netgen.Problem{{Name: "frame", Safety: p}}
}

func TestRestrictedFallsBackWhenTheFrameMoves(t *testing.T) {
	isp, r1r3 := topology.Edge{From: "ISP1", To: "R1"}, topology.Edge{From: "R1", To: "R3"}
	trail := []netgen.MutationSpec{{Kind: netgen.MutInsertImportDeny, From: isp.From, To: isp.To, Seq: 15, Match: "test-net-2"}}
	served, results := newTwins(t, frameSource{}).run(t, "frame", walk(t, netgen.Fig1(netgen.Fig1Options{}), trail))
	if served[0] != 0 {
		t.Fatalf("a problem whose frame moved was served from the index")
	}
	upd := results[1]
	if d := upd.Diff; len(d.ChangedEdges) != 1 || d.ChangedEdges[0] != isp || len(d.AddedEdges)+len(d.RemovedEdges)+len(d.ChangedNodes) != 0 {
		t.Fatalf("diff %+v, want only %s changed", d, isp)
	}
	// Dirty: the edited import, and the import, export and originate checks
	// on R1 -> R3, whose invariant moved with it.
	if upd.DirtyChecks != 4 {
		t.Fatalf("%d checks dirty, want the edited import at %s and the three checks at %s", upd.DirtyChecks, isp, r1r3)
	}
}

// TestOneIndexPerEdgeFrame: wan-peering over every router of a generated
// 3-region WAN poses each peering property at every router; problems that
// differ only in the property's location share an edge frame, and the
// verifier keeps one index per frame.
func TestOneIndexPerEdgeFrame(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	n := netgen.WAN(netgen.DefaultWANParams(), netgen.WANBugs{})
	v := delta.NewVerifierFor(eng, suiteSource(t, "wan-peering", netgen.SuiteParams{}))
	v.SetWorkload(engine.Workload{SubmitOptions: engine.SubmitOptions{Results: engine.ResultsFailures}})
	res, err := v.Baseline(n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Problems) <= 11 {
		t.Fatalf("baseline ok=%v over %d problems", res.OK, len(res.Problems))
	}
	if got := v.Indexes(); got != 11 {
		t.Errorf("%d indexes for %d problems, want 11", got, len(res.Problems))
	}
}
