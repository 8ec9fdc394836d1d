package plan

import (
	"fmt"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/topology"
)

// countNetworks is every generator variant (the five Fig1Options, FullMesh
// 3/6/10 and each WANBugs) plus the default corpus roster.
func countNetworks(t *testing.T) map[string]*topology.Network {
	t.Helper()
	nets := map[string]*topology.Network{}
	for name, o := range map[string]netgen.Fig1Options{
		"fig1":                    {},
		"fig1-omit-transit-tag":   {OmitTransitTag: true},
		"fig1-skip-export-filter": {SkipExportFilter: true},
		"fig1-strip-at-r2":        {StripAtR2: true},
		"fig1-forget-strip-at-r3": {ForgetStripAtR3: true},
	} {
		nets[name] = netgen.Fig1(o)
	}
	for _, n := range []int{3, 6, 10} {
		nets[fmt.Sprintf("fullmesh-%d", n)] = netgen.FullMesh(n)
	}
	for name, bugs := range map[string]netgen.WANBugs{
		"wan":                        {},
		"wan-missing-bogon-filter":   {MissingBogonFilter: true},
		"wan-wrong-region-community": {WrongRegionCommunity: true},
		"wan-missing-local-pref":     {MissingLocalPref: true},
	} {
		nets[name] = netgen.WAN(netgen.DefaultWANParams(), bugs)
	}
	for _, m := range corpus.DefaultRoster(7) {
		n, _, err := m.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Ref(), err)
		}
		nets[m.Ref()] = n
	}
	return nets
}

// TestNumChecksMatchesChecks: counting a problem's checks — what admission
// prices a plan at — agrees with generating them, for every suite on every
// generator variant and corpus member, including the problems whose
// generation fails.
func TestNumChecksMatchesChecks(t *testing.T) {
	params := netgen.SuiteParams{Regions: netgen.DefaultWANParams().Regions}
	problems, failing := 0, 0
	for name, n := range countNetworks(t) {
		for _, s := range netgen.Suites() {
			for _, p := range s.Build(n, params) {
				prep := prepare(p)
				count, err := numChecks(p)
				if (err == nil) != (prep.Err == nil) || count != len(prep.Checks) {
					t.Errorf("%s/%s/%s: NumChecks %d (err %v), Checks %d (err %v)",
						name, s.Name, p.Name, count, err, len(prep.Checks), prep.Err)
				}
				problems++
				if prep.Err != nil {
					failing++
				}
			}
		}
	}
	if problems == 0 || failing == 0 {
		t.Fatalf("swept %d problems, %d with generation errors; want both kinds", problems, failing)
	}
}

// TestCountChecksIsThePerProblemSum: admission counts a safety problem's
// checks once per network; over every suite on every counted network at
// once — safety and liveness problems, invalid paths among them, the
// networks interleaved — the cost is still the sum of every problem's own
// count.
func TestCountChecksIsThePerProblemSum(t *testing.T) {
	params := netgen.SuiteParams{Regions: netgen.DefaultWANParams().Regions}
	var lists [][]netgen.Problem
	for _, n := range countNetworks(t) {
		for _, s := range netgen.Suites() {
			lists = append(lists, s.Build(n, params))
		}
	}
	var problems []netgen.Problem
	sum, liveness, nets := 0, 0, map[*topology.Network]bool{}
	for i := 0; len(lists) > 0; i++ {
		k := i % len(lists)
		p := lists[k][0]
		if lists[k] = lists[k][1:]; len(lists[k]) == 0 {
			lists = append(lists[:k], lists[k+1:]...)
		}
		problems = append(problems, p)
		if count, err := numChecks(p); err == nil {
			sum += count
		}
		if p.Liveness != nil {
			liveness++
		} else {
			nets[p.Safety.Network] = true
		}
	}
	if liveness == 0 || len(nets) < 2 {
		t.Fatalf("%d liveness problems over %d networks; want both kinds, several networks", liveness, len(nets))
	}
	if got := delta.CountChecks(problems); got != sum {
		t.Fatalf("CountChecks = %d, the problems' own counts sum to %d", got, sum)
	}
}

// TestNumChecksRejectsInvalidPath: a liveness problem whose path does not
// end at the property's location is an error to count as well as to build.
func TestNumChecksRejectsInvalidPath(t *testing.T) {
	suite, ok := netgen.Lookup("fig1-liveness")
	if !ok {
		t.Fatal("fig1-liveness suite missing")
	}
	problems := suite.Build(netgen.Fig1(netgen.Fig1Options{}), netgen.SuiteParams{})
	if len(problems) == 0 || problems[0].Liveness == nil {
		t.Fatal("fig1-liveness built no liveness problem")
	}
	lp := *problems[0].Liveness
	lp.Steps = lp.Steps[:len(lp.Steps)-1]
	if _, err := lp.NumChecks(); err == nil {
		t.Error("NumChecks accepted a path that ends short of the property")
	}
	if _, err := lp.Checks(core.Options{}); err == nil {
		t.Error("Checks accepted a path that ends short of the property")
	}
}

// TestCostEqualsChecksSubmitted: the admission cost of a plan mixing safety
// and liveness suites is exactly what its run submits.
func TestCostEqualsChecksSubmitted(t *testing.T) {
	c, err := Compile(Request{
		Network:    Network{Generator: wanSpec(2)},
		Properties: []Property{{Name: "wan-peering"}, {Name: "wan-ip-reuse"}, {Name: "wan-ip-liveness"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	res, err := Run(eng, c, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("plan failed")
	}
	if got := eng.Stats().ChecksSubmitted; uint64(c.Cost()) != got {
		t.Fatalf("Cost() = %d, run submitted %d", c.Cost(), got)
	}
}

// benchWAN is the repository benchmark's 5-region WAN: 286 wan-peering
// problems, 404,118 checks — more than three batches.
func benchWAN(bugs netgen.WANBugs) Request {
	p := netgen.WANParams{Regions: 5, RoutersPerRegion: 4, EdgeRouters: 6, DCsPerRegion: 1, PeersPerEdge: 6}
	return Request{
		Network:    Network{Config: netgen.WANDSL(p, bugs)},
		Properties: []Property{{Name: "wan-peering"}},
		Options:    Options{WANRegions: p.Regions},
	}
}

// eventOrder is a plan Sink that checks the event contract: each problem
// runs start → check* → problem, problem events arrive in plan order, each
// property event follows all of its problems, and the plan event comes
// last. It also tracks the checks outstanding — the start events' totals
// minus the finished problems' check counts.
type eventOrder struct {
	t     *testing.T
	c     *Compiled
	order []eventRef
	state map[eventRef]string
	next  int
	done  map[int]int
	last  string

	outstanding, peak, largest int
	// startAfterProblem is set when a problem started after another had
	// finished: the plan ran in more than one batch.
	startAfterProblem bool
	skipped           int
}

type eventRef struct{ prop, idx int }

func newEventOrder(t *testing.T, c *Compiled) *eventOrder {
	o := &eventOrder{t: t, c: c, state: map[eventRef]string{}, done: map[int]int{}}
	for pi, u := range c.Units {
		for i := range u.Problems {
			o.order = append(o.order, eventRef{pi, i})
		}
	}
	return o
}

func (o *eventOrder) sink(ev Event) {
	t := o.t
	if o.last == "plan" {
		t.Errorf("%s event after the plan event", ev.Type)
	}
	o.last = ev.Type
	r := eventRef{ev.Prop, ev.Idx}
	switch ev.Type {
	case "start":
		if o.state[r] != "" {
			t.Errorf("start of %s after its %s event", ev.Problem, o.state[r])
		}
		o.state[r] = "start"
		o.outstanding += ev.Total
		o.peak, o.largest = max(o.peak, o.outstanding), max(o.largest, ev.Total)
		o.startAfterProblem = o.startAfterProblem || o.next > 0
	case "check":
		if o.state[r] != "start" {
			t.Errorf("check event of %s in state %q", ev.Problem, o.state[r])
		}
	case "problem":
		if o.next >= len(o.order) || o.order[o.next] != r {
			t.Fatalf("problem event %s out of plan order (position %d)", ev.Problem, o.next)
		}
		o.next++
		if ev.Stats != nil {
			if o.state[r] != "start" {
				t.Errorf("problem event of %s without a start", ev.Problem)
			}
			o.outstanding -= ev.Stats.Checks
		}
		if ev.Skipped {
			o.skipped++
		}
		o.state[r] = "problem"
		o.done[ev.Prop]++
	case "property":
		if n := len(o.c.Units[ev.Prop].Problems); o.done[ev.Prop] != n {
			t.Errorf("property %s event after %d of its %d problems", ev.Property, o.done[ev.Prop], n)
		}
	}
}

// run runs the plan with the checker as its sink and checks the stream
// ended with every problem and then the plan event.
func (o *eventOrder) run(eng *engine.Engine) *Result {
	o.t.Helper()
	res, err := Run(eng, o.c, RunConfig{Sink: o.sink})
	if err != nil {
		o.t.Fatal(err)
	}
	if o.last != "plan" || o.next != len(o.order) {
		o.t.Fatalf("stream ended with %q after %d of %d problem events", o.last, o.next, len(o.order))
	}
	return res
}

// TestSkippedProblemEventsInPlanOrder: a problem that cannot be generated
// (a region path absent from a 2-region network verified as 3 regions) gets
// its skipped problem event in plan order, among the problems that ran.
func TestSkippedProblemEventsInPlanOrder(t *testing.T) {
	p := netgen.DefaultWANParams()
	p.Regions = 2
	c, err := Compile(Request{
		Network:    Network{Config: netgen.WANDSL(p, netgen.WANBugs{})},
		Properties: []Property{{Name: "wan-ip-liveness"}, {Name: "wan-peering", Routers: []topology.NodeID{"edge-0"}}},
		Options:    Options{WANRegions: 3},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	o := newEventOrder(t, c)
	if res := o.run(eng); !res.OK {
		t.Fatal("plan failed")
	}
	if o.skipped == 0 || o.skipped == len(c.Units[0].Problems) {
		t.Fatalf("%d of %d liveness problems skipped; want some, not all", o.skipped, len(c.Units[0].Problems))
	}
}

// streamRun runs a plan of more than three batches under an eventOrder and
// checks that it was streamed: problems started after others finished, the
// checks outstanding never exceeded two batches plus the largest problem,
// and the run submitted exactly the admission cost.
func streamRun(t *testing.T, req Request) *Result {
	t.Helper()
	c, err := Compile(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cost() <= 3*batchChecks {
		t.Fatalf("plan of %d checks is not more than three batches", c.Cost())
	}
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	o := newEventOrder(t, c)
	res := o.run(eng)
	if bound := 2*batchChecks + o.largest; o.peak > bound {
		t.Fatalf("%d checks outstanding at peak, bound %d", o.peak, bound)
	}
	if !o.startAfterProblem {
		t.Fatal("every problem started before the first finished: the plan was not streamed")
	}
	if got := eng.Stats().ChecksSubmitted; uint64(c.Cost()) != got {
		t.Fatalf("Cost() = %d, run submitted %d", c.Cost(), got)
	}
	return res
}

// TestRunStreamsLargePlan: the benchmark WAN's wan-peering plan runs in
// batches, verifies in full, and on the missing-bogon WAN fails exactly the
// problems and locations it fails when submitted whole: every no-bogons
// problem, each at the one unfiltered peer import.
func TestRunStreamsLargePlan(t *testing.T) {
	if testing.Short() {
		t.Skip("404,118-check plan")
	}
	res := streamRun(t, benchWAN(netgen.WANBugs{}))
	if n := len(res.Properties[0].Problems); !res.OK || n != 286 {
		t.Fatalf("clean WAN: ok=%v over %d problems, want ok over 286", res.OK, n)
	}

	req := benchWAN(netgen.WANBugs{MissingBogonFilter: true})
	res = streamRun(t, req)
	n, _, err := req.Network.Materialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, r := range n.Routers() {
		want["no-bogons@"+string(r)] = true
	}
	bogon := core.AtEdge(topology.Edge{From: "peer-e0-0", To: "edge-0"})
	for _, p := range res.Properties[0].Problems {
		if p.OK != !want[p.Name] || p.Skipped || p.Failed {
			t.Errorf("%s: ok=%v skipped=%v failed=%v", p.Name, p.OK, p.Skipped, p.Failed)
			continue
		}
		if p.OK {
			continue
		}
		fails := p.Report.HardFailures()
		if len(fails) != 1 || fails[0].Kind != core.ImportCheck || fails[0].Loc != bogon {
			t.Errorf("%s fails at %v, want only the import at %s", p.Name, fails, bogon)
		}
		delete(want, p.Name)
	}
	if len(want) != 0 {
		t.Errorf("problems that should fail but did not run: %v", want)
	}
}
