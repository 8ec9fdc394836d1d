package plan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"lightyear/internal/corpus"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/topology"
)

func wanSpec(edgeRouters int) *netgen.GeneratorSpec {
	return &netgen.GeneratorSpec{Kind: "wan", Regions: 2, RoutersPerRegion: 2,
		EdgeRouters: edgeRouters, DCsPerRegion: 1, PeersPerEdge: 1}
}

func TestRequestValidate(t *testing.T) {
	gen := &netgen.GeneratorSpec{Kind: "fig1"}
	cases := []struct {
		name string
		req  Request
		want string // substring of the error, "" = valid
	}{
		{"ok", Request{Network: Network{Generator: gen},
			Properties: []Property{{Name: "fig1-no-transit"}}}, ""},
		{"no-network", Request{Properties: []Property{{Name: "fig1-no-transit"}}},
			"network source is required"},
		{"two-sources", Request{Network: Network{Config: "x", Generator: gen},
			Properties: []Property{{Name: "fig1-no-transit"}}}, "exactly one network source"},
		{"no-properties", Request{Network: Network{Generator: gen}}, "at least one property"},
		{"unknown-property", Request{Network: Network{Generator: gen},
			Properties: []Property{{Name: "nope"}}}, `unknown property "nope"`},
	}
	for _, c := range cases {
		err := c.req.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
	// Unknown-property errors must list the registry, so CLI/API callers
	// see what is available.
	err := Request{Network: Network{Generator: gen}, Properties: []Property{{Name: "nope"}}}.Validate()
	for _, name := range netgen.SuiteNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-property error should list suite %q: %v", name, err)
		}
	}
}

func TestRequestJSONRoundTrip(t *testing.T) {
	req := Request{
		Network: Network{Generator: wanSpec(1)},
		Properties: []Property{
			{Name: "wan-peering", Routers: []topology.NodeID{"edge-0"}},
			{Name: "wan-ip-reuse", Regions: []int{0}},
		},
		Options: Options{WANRegions: 2, Tenant: "acme", Priority: 3, Results: engine.ResultsAll},
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("round trip changed the request:\n%s\n%s", b, b2)
	}
}

// TestDecodeIsStrict: plan documents decode through Decode, which refuses
// every field the schema lacks — the engine settings and the delta baseline
// a request no longer carries, and a misspelled scope — naming it, and
// anything after the document.
func TestDecodeIsStrict(t *testing.T) {
	const prefix = `{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit"`
	var req Request
	if err := Decode(strings.NewReader(prefix+`, "routers": ["R2"]}], "options": {"wan_regions": 2}}`+"\n"), &req); err != nil {
		t.Fatalf("valid document refused: %v", err)
	}
	if len(req.Properties) != 1 || len(req.Properties[0].Routers) != 1 || req.Options.WANRegions != 2 {
		t.Fatalf("decoded %+v", req)
	}
	for _, tc := range []struct{ body, want string }{
		{prefix + `}], "options": {"workers": 4}}`, `"workers"`},
		{prefix + `}], "options": {"cache": -1}}`, `"cache"`},
		{prefix + `}], "options": {"store": "/tmp/x"}}`, `"store"`},
		{prefix + `}], "options": {"baseline": {"generator": {"kind": "fig1"}}}}`, `"baseline"`},
		{prefix + `, "router": ["R2"]}]}`, `"router"`},
		{prefix + `}]} {}`, "after the document"},
	} {
		var req Request
		if err := Decode(strings.NewReader(tc.body), &req); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %s", tc.body, err, tc.want)
		}
	}
}

// checkID is the comparable identity of one check outcome.
type checkID struct {
	kind, loc, desc string
	ok              bool
}

func reportChecks(t *testing.T, r *engine.ReportJSON) []checkID {
	t.Helper()
	out := make([]checkID, 0, len(r.Checks))
	for _, c := range r.Checks {
		out = append(out, checkID{c.Kind, c.Loc, c.Desc, c.OK})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return a.kind+a.loc+a.desc < b.kind+b.loc+b.desc
	})
	return out
}

// TestPlanMatchesLegacySuiteRun round-trips every registered suite through
// the plan path and asserts the per-problem reports equal a legacy
// suite.Build run on a fresh engine.
func TestPlanMatchesLegacySuiteRun(t *testing.T) {
	networks := map[string]Network{
		"fig1-no-transit": {Config: netgen.Fig1DSL(netgen.Fig1Options{})},
		"fig1-liveness":   {Config: netgen.Fig1DSL(netgen.Fig1Options{})},
		"fullmesh":        {Generator: &netgen.GeneratorSpec{Kind: "fullmesh", Size: 4}},
		"sat-stress":      {Generator: &netgen.GeneratorSpec{Kind: "fig1"}},
		"wan-peering":     {Generator: wanSpec(1)},
		"wan-ip-reuse":    {Generator: wanSpec(1)},
		"wan-ip-liveness": {Generator: wanSpec(1)},
	}
	for _, name := range netgen.SuiteNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			ns, ok := networks[name]
			if !ok {
				t.Fatalf("no test network for registered suite %q; extend the map", name)
			}
			req := Request{Network: ns, Properties: []Property{{Name: name}},
				Options: Options{Results: engine.ResultsAll}} // every check is compared

			// Plan path, on its own engine.
			res := execute(t, req, "", 0)
			if len(res.Properties) != 1 {
				t.Fatalf("got %d property results, want 1", len(res.Properties))
			}

			// Legacy path: materialize the same network, Build, submit.
			c, err := Compile(req, nil)
			if err != nil {
				t.Fatal(err)
			}
			eng := engine.New(engine.Options{Workers: 4})
			defer eng.Close()
			suite, _ := netgen.Lookup(name)
			problems := suite.Build(c.Network, c.Params)

			got := res.Properties[0].Problems
			if len(got) != len(problems) {
				t.Fatalf("plan ran %d problems, legacy built %d", len(got), len(problems))
			}
			for i, p := range problems {
				out := got[i]
				if out.Name != p.Name {
					t.Fatalf("problem %d: plan name %q, legacy name %q", i, out.Name, p.Name)
				}
				var legacy *engine.ReportJSON
				switch {
				case p.Safety != nil:
					j, err := eng.Submit(context.Background(), engine.Workload{Safety: p.Safety})
					if err != nil {
						t.Fatal(err)
					}
					enc := engine.EncodeReport(j.Wait())
					legacy = &enc
				case p.Liveness != nil:
					j, err := eng.Submit(context.Background(), engine.Workload{Liveness: p.Liveness})
					if err != nil {
						if !out.Skipped {
							t.Fatalf("problem %s: legacy skipped (%v), plan did not", p.Name, err)
						}
						continue
					}
					enc := engine.EncodeReport(j.Wait())
					legacy = &enc
				}
				if out.Skipped || out.Report == nil {
					t.Fatalf("problem %s: plan skipped or missing report, legacy ran", p.Name)
				}
				if out.OK != legacy.OK {
					t.Fatalf("problem %s: plan ok=%v, legacy ok=%v", p.Name, out.OK, legacy.OK)
				}
				gotChecks, wantChecks := reportChecks(t, out.EncodeReport()), reportChecks(t, legacy)
				if len(gotChecks) != len(wantChecks) {
					t.Fatalf("problem %s: plan ran %d checks, legacy %d", p.Name, len(gotChecks), len(wantChecks))
				}
				for j := range gotChecks {
					if gotChecks[j] != wantChecks[j] {
						t.Fatalf("problem %s check %d: plan %+v, legacy %+v", p.Name, j, gotChecks[j], wantChecks[j])
					}
				}
			}
		})
	}
}

// TestMultiPropertyPlanSharedEngine is the acceptance-criterion shape: one
// request, several properties over one network, per-property reports, and
// cross-property cache/dedup reuse on the shared engine.
func TestMultiPropertyPlanSharedEngine(t *testing.T) {
	c, err := Compile(Request{
		Network: Network{Generator: wanSpec(1)},
		Properties: []Property{
			{Name: "wan-peering", Routers: []topology.NodeID{netgen.RegionRouter(0, 0)}},
			{Name: "wan-peering", Routers: []topology.NodeID{netgen.RegionRouter(1, 0)}},
			{Name: "wan-ip-reuse"},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 4})
	defer eng.Close()
	res, err := Run(eng, c, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Properties) != 3 {
		t.Fatalf("want 3 OK property reports, got ok=%v n=%d", res.OK, len(res.Properties))
	}
	for i, pr := range res.Properties {
		if !pr.OK || len(pr.Problems) == 0 {
			t.Fatalf("property %d (%s): ok=%v problems=%d", i, pr.Property.Name, pr.OK, len(pr.Problems))
		}
		for _, p := range pr.Problems {
			if p.Report == nil || !p.OK {
				t.Fatalf("property %d problem %s: missing or failing report", i, p.Name)
			}
		}
	}
	// Scoping: the two wan-peering entries each cover exactly one router's
	// 11 peering problems.
	for i := 0; i < 2; i++ {
		if n := len(res.Properties[i].Problems); n != len(netgen.PeeringProperties(2)) {
			t.Errorf("scoped wan-peering %d built %d problems, want %d", i, n, len(netgen.PeeringProperties(2)))
		}
	}
	// Cross-property reuse: the two scoped wan-peering instances share
	// almost all their local checks, so the later one must be served from
	// cache/dedup rather than re-solved.
	reuse := res.Properties[0].Stats.CacheHits + res.Properties[0].Stats.DedupHits +
		res.Properties[1].Stats.CacheHits + res.Properties[1].Stats.DedupHits
	if reuse == 0 {
		t.Errorf("expected cross-property cache/dedup reuse, stats: %+v / %+v",
			res.Properties[0].Stats, res.Properties[1].Stats)
	}
	if res.Engine.ChecksSolved >= res.Engine.ChecksSubmitted {
		t.Errorf("engine solved %d of %d submitted checks; sharing had no effect",
			res.Engine.ChecksSolved, res.Engine.ChecksSubmitted)
	}
}

// TestPlanEventStream pins the event contract under each results mode: the
// same start/problem/property/plan skeleton, with a check event per check
// under "all" and — every fig1 check passing — none under the default.
func TestPlanEventStream(t *testing.T) {
	t.Run("failures", func(t *testing.T) { testPlanEventStream(t, "", false) })
	t.Run("all", func(t *testing.T) { testPlanEventStream(t, engine.ResultsAll, true) })
}

func testPlanEventStream(t *testing.T, results engine.ResultsMode, everyCheck bool) {
	c, err := Compile(Request{
		Network:    Network{Generator: &netgen.GeneratorSpec{Kind: "fig1"}},
		Properties: []Property{{Name: "fig1-no-transit"}},
		Options:    Options{Results: results},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	var events []Event
	res, err := Run(eng, c, RunConfig{Sink: func(ev Event) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("fig1-no-transit should verify: %+v", res)
	}
	var starts, checks, problems, properties, plans int
	for _, ev := range events {
		switch ev.Type {
		case "start":
			starts++
			if ev.Total == 0 || checks > 0 {
				t.Fatalf("start event must precede checks and carry the total: %+v", ev)
			}
		case "check":
			checks++
			if problems > 0 {
				t.Fatal("check event after its problem event")
			}
		case "problem":
			problems++
		case "property":
			properties++
		case "plan":
			plans++
		}
	}
	total := 0
	if everyCheck {
		total = res.Properties[0].Stats.Checks
	}
	if rep := res.Properties[0].Problems[0].Report; len(rep.Results) != total || rep.NumChecks() != res.Properties[0].Stats.Checks {
		t.Fatalf("report keeps %d results and counts %d checks, want %d and %d",
			len(rep.Results), rep.NumChecks(), total, res.Properties[0].Stats.Checks)
	}
	if starts != 1 || checks != total || problems != 1 || properties != 1 || plans != 1 {
		t.Fatalf("events: %d starts, %d checks (want %d), %d problems, %d properties, %d plans",
			starts, checks, total, problems, properties, plans)
	}
	if events[len(events)-1].Type != "plan" {
		t.Fatalf("last event is %q, want plan", events[len(events)-1].Type)
	}
}

func TestCompileScopeErrors(t *testing.T) {
	_, err := Compile(Request{
		Network:    Network{Generator: wanSpec(1)},
		Properties: []Property{{Name: "wan-peering", Routers: []topology.NodeID{"no-such-router"}}},
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "no-such-router") {
		t.Fatalf("scoping to an unknown router should fail compile, got %v", err)
	}
	var reqErr *RequestError
	if !errors.As(err, &reqErr) {
		t.Fatalf("scope error %v (%T) should be a RequestError", err, err)
	}
	_, err = Compile(Request{
		Network:    Network{Generator: wanSpec(1)},
		Properties: []Property{{Name: "wan-peering", Routers: []topology.NodeID{netgen.PeerNode(0, 0)}}},
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "external") {
		t.Fatalf("scoping to an external node should fail compile, got %v", err)
	}
	// A region index outside the effective region count would scope the
	// regional suites to nothing and pass vacuously; compile must reject it.
	_, err = Compile(Request{
		Network:    Network{Generator: wanSpec(1)},
		Properties: []Property{{Name: "wan-ip-reuse", Regions: []int{7}}},
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "region index 7") {
		t.Fatalf("out-of-range region scope should fail compile, got %v", err)
	}
	// Dimensions individually valid but jointly empty: wan-ip-reuse for
	// region 0 enumerates only routers *outside* region 0, so scoping its
	// routers to one inside the region selects nothing.
	_, err = Compile(Request{
		Network: Network{Generator: wanSpec(1)},
		Properties: []Property{{Name: "wan-ip-reuse", Regions: []int{0},
			Routers: []topology.NodeID{netgen.RegionRouter(0, 0)}}},
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "selects no problems") {
		t.Fatalf("jointly-empty scope should fail compile, got %v", err)
	}
}

func TestRequestErrorsAreTyped(t *testing.T) {
	cases := []error{
		Request{Properties: []Property{{Name: "fig1-no-transit"}}}.Validate(),
		Request{Network: Network{Generator: &netgen.GeneratorSpec{Kind: "fig1"}}}.Validate(),
		Request{Network: Network{Generator: &netgen.GeneratorSpec{Kind: "fig1"}},
			Properties: []Property{{Name: "nope"}}}.Validate(),
	}
	for i, err := range cases {
		var reqErr *RequestError
		if err == nil || !errors.As(err, &reqErr) {
			t.Errorf("case %d: %v (%T) should be a RequestError", i, err, err)
		}
	}
}

// TestMaterializeRejectsAmbiguousSource: a bare Network (session update
// bodies) must reject two sources rather than silently picking one.
func TestMaterializeRejectsAmbiguousSource(t *testing.T) {
	_, _, err := Network{Config: "x", Generator: &netgen.GeneratorSpec{Kind: "fig1"}}.Materialize(nil)
	if err == nil || !strings.Contains(err.Error(), "exactly one network source") {
		t.Fatalf("ambiguous source accepted: %v", err)
	}
	_, _, err = Network{}.Materialize(nil)
	if err == nil {
		t.Fatal("empty source accepted")
	}
}

type fakeResolver map[string]*topology.Network

func (r fakeResolver) ResolveBaseline(ref string) (*topology.Network, int, error) {
	n, ok := r[ref]
	if !ok {
		return nil, 0, fmt.Errorf("no such baseline %q", ref)
	}
	return n, 2, nil
}

func TestBaselineReference(t *testing.T) {
	req := Request{
		Network:    Network{Baseline: "session-1"},
		Properties: []Property{{Name: "fig1-no-transit"}},
	}
	if _, err := Compile(req, nil); err == nil {
		t.Fatal("baseline reference without a resolver should fail")
	}
	res := fakeResolver{"session-1": netgen.Fig1(netgen.Fig1Options{})}
	c, err := Compile(req, res)
	if err != nil {
		t.Fatal(err)
	}
	if c.Network == nil || len(c.Units[0].Problems) != 1 {
		t.Fatalf("baseline-resolved plan should compile: %+v", c)
	}
	// The resolver's region count is inherited when the request sets none.
	if c.Params.Regions != 2 {
		t.Fatalf("baseline regions not inherited: params %+v", c.Params)
	}
}

// TestPlanAdmittedAsOneUnit: the compiled plan's check count is its
// admission cost, a too-small engine budget rejects the whole request with
// the typed admission error before any check is submitted, and a budget
// that fits admits and runs it under the request's tenant.
func TestPlanAdmittedAsOneUnit(t *testing.T) {
	req := Request{
		Network:    Network{Generator: wanSpec(1)},
		Properties: []Property{{Name: "wan-peering"}},
		Options:    Options{Tenant: "acme", Priority: 2},
	}
	c, err := Compile(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	cost := c.Cost()
	if cost == 0 {
		t.Fatal("compiled plan reports zero cost")
	}
	if c.Tenant() != "acme" {
		t.Fatalf("Tenant() = %q", c.Tenant())
	}

	// One check short of the plan: rejected as a unit, nothing submitted.
	eng := engine.New(engine.Options{Admission: engine.Admission{MaxInFlightChecks: cost - 1}})
	defer eng.Close()
	_, err = Run(eng, c, RunConfig{})
	var adm *engine.ErrAdmission
	if !errors.As(err, &adm) {
		t.Fatalf("under-budget run: got %v, want ErrAdmission", err)
	}
	if adm.Tenant != "acme" || adm.Cost != cost {
		t.Fatalf("ErrAdmission fields: %+v", adm)
	}
	st := eng.Stats()
	if st.ChecksSubmitted != 0 {
		t.Fatalf("rejected plan still submitted %d checks", st.ChecksSubmitted)
	}
	if st.Tenants["acme"].Rejected != 1 {
		t.Fatalf("tenant stats after rejection: %+v", st.Tenants["acme"])
	}

	// An exact-fit budget admits the plan; the reservation is released when
	// the run completes, and the per-job stats carry the tenant.
	eng2 := engine.New(engine.Options{Admission: engine.Admission{MaxInFlightChecks: cost}})
	defer eng2.Close()
	c2, err := Compile(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(eng2, c2, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("plan failed under an exact-fit budget")
	}
	if got := res.Properties[0].Stats.Tenant; got != "acme" {
		t.Fatalf("property stats tenant = %q, want acme", got)
	}
	st2 := eng2.Stats()
	if st2.Tenants["acme"].Admitted != 1 || st2.InFlightCost != 0 {
		t.Fatalf("post-run tenant accounting: %+v (in-flight %d)", st2.Tenants["acme"], st2.InFlightCost)
	}
	// Capacity was returned: the same plan fits again.
	c3, err := Compile(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(eng2, c3, RunConfig{}); err != nil {
		t.Fatalf("rerun after release rejected: %v", err)
	}
}

// TestPlanHostReservation: a host-provided reservation (the lyserve 429
// path) is used instead of re-reserving, and Run releases it.
func TestPlanHostReservation(t *testing.T) {
	c, err := Compile(Request{
		Network:    Network{Generator: wanSpec(1)},
		Properties: []Property{{Name: "wan-peering"}},
		Options:    Options{Tenant: "acme"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Admission: engine.Admission{MaxInFlightChecks: c.Cost()}})
	defer eng.Close()
	resv, err := eng.Reserve(c.Tenant(), c.Cost())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(eng, c, RunConfig{Reservation: resv})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("run under host reservation failed")
	}
	if st := eng.Stats(); st.InFlightCost != 0 {
		t.Fatalf("Run did not release the host reservation: in-flight %d", st.InFlightCost)
	}
}

// TestSourceBoundBeforeBuild: Compile runs before admission, so generator
// and corpus sources are sized from their parameters and refused as
// request errors before anything is built — the hundred-byte full mesh of
// 1000 routers (about a million sessions) is refused at once — while the
// 20-region benchmark WAN and every default roster member still compile.
func TestSourceBoundBeforeBuild(t *testing.T) {
	for _, body := range []string{
		`{"network":{"generator":{"kind":"fullmesh","size":1000}},"properties":[{"name":"fullmesh"}]}`,
		`{"network":{"generator":{"kind":"wan","regions":1000000000,"routers_per_region":1000000000}},"properties":[{"name":"wan-peering"}]}`,
		`{"network":{"corpus":"tree:1:depth=30,fanout=10"},"properties":[{"name":"wan-peering"}]}`,
		`{"network":{"corpus":"ring:1:size=9000"},"properties":[{"name":"wan-peering"}]}`,
		`{"network":{"corpus":"zoo:1:graph=abilene,peers=100000"},"properties":[{"name":"wan-peering"}]}`,
	} {
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err := Compile(req, nil)
		took := time.Since(start)
		var reqErr *RequestError
		if !errors.As(err, &reqErr) || !strings.Contains(err.Error(), "the bound is") {
			t.Errorf("%s: got %v, want a size-bound request error", body, err)
		}
		if took > 50*time.Millisecond {
			t.Errorf("%s: refused after %v, want under 50ms", body, took)
		}
	}

	wan20 := netgen.GeneratorSpec{Kind: "wan", Regions: 20, RoutersPerRegion: 4, EdgeRouters: 6, DCsPerRegion: 1, PeersPerEdge: 6}
	c, err := Compile(Request{Network: Network{Generator: &wan20},
		Properties: []Property{{Name: "wan-peering"}}, Options: Options{WANRegions: 20}}, nil)
	if err != nil {
		t.Fatalf("20-region WAN: %v", err)
	}
	if r, e := len(c.Network.Routers()), len(c.Network.Edges()); r != 86 || e != 7542 {
		t.Fatalf("20-region WAN has %d routers and %d sessions, want 86 and 7,542", r, e)
	}
	for _, m := range corpus.DefaultRoster(7) {
		if _, err := Compile(Request{Network: Network{Corpus: m.Ref()},
			Properties: []Property{{Name: corpus.PropertySuite}}}, nil); err != nil {
			t.Errorf("roster member %s: %v", m.Ref(), err)
		}
	}
}

// TestCostOfTheLargestRing: a 90-byte body within every source bound poses
// 29,700 wan-peering problems on one ring of 2,700 routers. Admission
// prices it before granting anything, so the price must not walk every
// edge once per problem: a safety problem's count reads only its network,
// and Cost counts each network once.
func TestCostOfTheLargestRing(t *testing.T) {
	var req Request
	body := `{"network":{"corpus":"ring:1:size=2700,peers=2"},"properties":[{"name":"wan-peering"}]}`
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	cost := c.Cost()
	took := time.Since(start)
	problems := c.Units[0].Problems
	if len(problems) != 29700 {
		t.Fatalf("%d problems, want 11 properties at each of 2,700 routers", len(problems))
	}
	if per := problems[0].Safety.NumChecks(); cost != len(problems)*per || cost != 641549700 {
		t.Fatalf("Cost() = %d, want %d problems × %d checks = 641,549,700", cost, len(problems), per)
	}
	if !raceEnabled && took > time.Second {
		t.Errorf("Cost() took %v, want under 1s", took)
	}
}

// TestWANRegionsBoundedByTheNetwork: the WAN suites build per-region
// problems before admission, so wan_regions above the network's router
// count is a request error, refused at once; the 20-region WAN still
// compiles with its 20 regions.
func TestWANRegionsBoundedByTheNetwork(t *testing.T) {
	var req Request
	body := `{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "wan-ip-liveness"}, {"name": "wan-ip-reuse"}], "options": {"wan_regions": 16384}}`
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := Compile(req, nil)
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Errorf("refused after %v, want within 250ms", took)
	}
	var reqErr *RequestError
	if !errors.As(err, &reqErr) || !strings.Contains(err.Error(), "wan_regions") {
		t.Fatalf("fig1 with 16,384 regions: got %v, want a wan_regions request error", err)
	}

	wan20 := netgen.GeneratorSpec{Kind: "wan", Regions: 20, RoutersPerRegion: 4, EdgeRouters: 6, DCsPerRegion: 1, PeersPerEdge: 6}
	c, err := Compile(Request{Network: Network{Generator: &wan20},
		Properties: []Property{{Name: "wan-ip-liveness"}}, Options: Options{WANRegions: 20}}, nil)
	if err != nil {
		t.Fatalf("20-region WAN: %v", err)
	}
	if n := len(c.Units[0].Problems); n != 20 {
		t.Fatalf("20-region WAN: %d wan-ip-liveness problems, want one per region", n)
	}
}
