package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
	"lightyear/internal/store"
	"lightyear/internal/topology"
)

func baseFlags() cliFlags {
	return cliFlags{Properties: "fig1-no-transit", WANRegions: 3, Set: map[string]bool{}}
}

func writeConfig(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.cfg")
	if err := os.WriteFile(path, []byte(netgen.Fig1DSL(netgen.Fig1Options{})), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBuildRequestFlags(t *testing.T) {
	f := baseFlags()
	f.ConfigPath = writeConfig(t)
	f.Properties = "wan-peering, wan-ip-reuse"
	f.Routers = "edge-0,wan-r0-0"
	f.DiffPath = "old.cfg"
	f.WANRegions = 2
	req, err := buildRequest(f)
	if err != nil {
		t.Fatal(err)
	}
	if req.Network.ConfigPath != f.ConfigPath {
		t.Errorf("network = %+v", req.Network)
	}
	if len(req.Properties) != 2 || req.Properties[0].Name != "wan-peering" ||
		req.Properties[1].Name != "wan-ip-reuse" {
		t.Fatalf("properties = %+v", req.Properties)
	}
	for _, p := range req.Properties {
		if len(p.Routers) != 2 || p.Routers[0] != "edge-0" {
			t.Fatalf("router scope not applied: %+v", p)
		}
	}
	if req.Options.Baseline == nil || req.Options.Baseline.ConfigPath != "old.cfg" {
		t.Errorf("baseline = %+v", req.Options.Baseline)
	}
	if req.Options.WANRegions != 2 {
		t.Errorf("options = %+v", req.Options)
	}
}

// TestBuildRequestUnknownPropertyListsSuites: the error must name every
// registered suite so the caller can pick one.
func TestBuildRequestUnknownPropertyListsSuites(t *testing.T) {
	f := baseFlags()
	f.ConfigPath = "net.cfg"
	f.Properties = "no-such-suite"
	_, err := buildRequest(f)
	var usage *usageError
	if err == nil {
		t.Fatal("unknown property accepted")
	}
	if u, ok := err.(*usageError); !ok {
		t.Fatalf("error %v (%T) is not a usage error", err, err)
	} else {
		usage = u
	}
	for _, name := range netgen.SuiteNames() {
		if !strings.Contains(usage.Error(), name) {
			t.Errorf("error should list suite %q: %v", name, usage)
		}
	}
}

func TestBuildRequestMissingConfigIsUsageError(t *testing.T) {
	_, err := buildRequest(baseFlags())
	if _, ok := err.(*usageError); !ok {
		t.Fatalf("missing -config should be a usage error, got %v (%T)", err, err)
	}
}

// TestBuildRequestFromPlanFile: -plan loads the saved request; explicitly
// set flags override its fields, defaults do not.
func TestBuildRequestFromPlanFile(t *testing.T) {
	saved := plan.Request{
		Network: plan.Network{Generator: &netgen.GeneratorSpec{Kind: "wan", Regions: 2}},
		Properties: []plan.Property{
			{Name: "wan-peering", Routers: []topology.NodeID{"edge-0"}},
			{Name: "wan-ip-liveness"},
		},
		Options: plan.Options{WANRegions: 2, Tenant: "saved"},
	}
	b, err := json.Marshal(saved)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	f := baseFlags()
	f.PlanPath = path
	req, err := buildRequest(f)
	if err != nil {
		t.Fatal(err)
	}
	if req.Network.Generator == nil || len(req.Properties) != 2 ||
		req.Options.WANRegions != 2 || req.Options.Tenant != "saved" {
		t.Fatalf("plan file not honored: %+v", req)
	}

	// Explicit -wan-regions overrides the plan; the untouched -property
	// default does not.
	f.WANRegions = 4
	f.Set["wan-regions"] = true
	req, err = buildRequest(f)
	if err != nil {
		t.Fatal(err)
	}
	if req.Options.WANRegions != 4 || req.Options.Tenant != "saved" || len(req.Properties) != 2 {
		t.Fatalf("flag override wrong: %+v", req)
	}
}

// TestPlanFilesDecodeStrictly: -plan and -migrate documents are read with
// plan.Decode, so an engine setting (which no plan document carries any
// more) or a misspelled field is a usage error naming the field — exit 2 —
// rather than silently dropped.
func TestPlanFilesDecodeStrictly(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	dir := t.TempDir()
	for _, tc := range []struct{ name, doc, field string }{
		{"store", `{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit"}], "options": {"store": "d"}}`, "store"},
		{"workers", `{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit"}], "options": {"workers": 4}}`, "workers"},
		{"router", `{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit", "router": ["R2"]}]}`, "router"},
	} {
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		f := baseFlags()
		f.PlanPath = path
		_, err := buildRequest(f)
		if _, usage := err.(*usageError); !usage || !strings.Contains(err.Error(), `"`+tc.field+`"`) {
			t.Errorf("-plan with %s: %v (%T), want a usage error naming %q", tc.name, err, err, tc.field)
		}
		if code := fail(err); code != 2 {
			t.Errorf("-plan with %s: exit %d, want 2", tc.name, code)
		}
	}

	// The same options in a migration plan.
	doc := `{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit"}],
	 "options": {"store": "d"},
	 "steps": [{"label": "shield", "mutation": {"kind": "insert-export-deny", "from": "R2", "to": "ISP2", "seq": 5, "match": "community:100:1"}}]}`
	path := filepath.Join(dir, "steps.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	f := baseFlags()
	f.MigratePath = path
	if _, err := migratePlan(f); err == nil || !strings.Contains(err.Error(), `"store"`) {
		t.Errorf("-migrate with options.store: %v, want an error naming \"store\"", err)
	}
	if code := runMigrate(f, true, false, quiet); code != 2 {
		t.Errorf("-migrate with options.store: exit %d, want 2", code)
	}
}

// TestBuildRequestPlanRoutersOnly: -plan with -routers (and no -property)
// re-scopes the saved plan's own properties instead of replacing them with
// the -property flag default.
func TestBuildRequestPlanRoutersOnly(t *testing.T) {
	saved := plan.Request{
		Network: plan.Network{Generator: &netgen.GeneratorSpec{Kind: "wan", Regions: 2}},
		Properties: []plan.Property{
			{Name: "wan-peering", Routers: []topology.NodeID{"edge-0"}},
			{Name: "wan-ip-reuse"},
		},
		Options: plan.Options{WANRegions: 2},
	}
	b, err := json.Marshal(saved)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	f := baseFlags()
	f.PlanPath = path
	f.Routers = "wan-r0-0"
	f.Set["routers"] = true
	req, err := buildRequest(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Properties) != 2 || req.Properties[0].Name != "wan-peering" ||
		req.Properties[1].Name != "wan-ip-reuse" {
		t.Fatalf("-routers alone must keep the plan's properties: %+v", req.Properties)
	}
	for i, p := range req.Properties {
		if len(p.Routers) != 1 || p.Routers[0] != "wan-r0-0" {
			t.Fatalf("property %d not re-scoped: %+v", i, p)
		}
	}
}

// TestBuildRequestSolverAndRegions: -solver compiles into the plan's solver
// option and -regions into per-property region scopes.
func TestBuildRequestSolverAndRegions(t *testing.T) {
	f := baseFlags()
	f.ConfigPath = writeConfig(t)
	f.Properties = "wan-ip-reuse"
	f.Regions = "0, 2"
	f.Solver = "tiered:500"
	req, err := buildRequest(f)
	if err != nil {
		t.Fatal(err)
	}
	if s := req.Options.Solver; s == nil || s.Backend != "tiered" || s.Budget != 500 {
		t.Fatalf("solver spec = %+v", req.Options.Solver)
	}
	if len(req.Properties) != 1 || len(req.Properties[0].Regions) != 2 ||
		req.Properties[0].Regions[0] != 0 || req.Properties[0].Regions[1] != 2 {
		t.Fatalf("region scope = %+v", req.Properties)
	}

	f.Solver = "warp-drive"
	if _, err := buildRequest(f); err == nil {
		t.Fatal("unknown solver backend accepted")
	} else if _, ok := err.(*usageError); !ok {
		t.Fatalf("unknown solver backend: %v (%T), want usage error", err, err)
	}

	f.Solver = ""
	f.Regions = "two"
	if _, err := buildRequest(f); err == nil {
		t.Fatal("bad region index accepted")
	} else if _, ok := err.(*usageError); !ok {
		t.Fatalf("bad region index: %v (%T), want usage error", err, err)
	}
}

// TestExitCodeContract: 0 verified, 1 failed, 3 unknown-only.
func TestExitCodeContract(t *testing.T) {
	cases := []struct {
		res  plan.Result
		want int
	}{
		{plan.Result{OK: true}, 0},
		{plan.Result{OK: false, Failures: 2}, 1},
		{plan.Result{OK: false, Failures: 1, Unknowns: 3}, 1}, // a real failure dominates
		{plan.Result{OK: false, Unknowns: 3}, 3},
	}
	for _, c := range cases {
		if got := exitCode(&c.res); got != c.want {
			t.Errorf("exitCode(%+v) = %d, want %d", c.res, got, c.want)
		}
	}
}

// TestBuildRequestTenantFlags: -tenant flows into the plan's execution
// options (and overrides a saved plan's value only when set, like every
// other flag).
func TestBuildRequestTenantFlags(t *testing.T) {
	f := baseFlags()
	f.ConfigPath = writeConfig(t)
	f.Tenant = "netops"
	req, err := buildRequest(f)
	if err != nil {
		t.Fatal(err)
	}
	if req.Options.Tenant != "netops" {
		t.Errorf("tenant = %q, want netops", req.Options.Tenant)
	}

	// A saved plan's tenant survives unless -tenant was set explicitly.
	planPath := filepath.Join(t.TempDir(), "plan.json")
	saved := plan.Request{
		Network:    plan.Network{ConfigPath: f.ConfigPath},
		Properties: []plan.Property{{Name: "fig1-no-transit"}},
		Options:    plan.Options{Tenant: "saved-tenant"},
	}
	b, _ := json.Marshal(saved)
	if err := os.WriteFile(planPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	f2 := baseFlags()
	f2.PlanPath = planPath
	req2, err := buildRequest(f2)
	if err != nil {
		t.Fatal(err)
	}
	if req2.Options.Tenant != "saved-tenant" {
		t.Errorf("saved plan tenant = %q, want saved-tenant", req2.Options.Tenant)
	}
	f3 := baseFlags()
	f3.PlanPath = planPath
	f3.Tenant = "cli-tenant"
	f3.Set["tenant"] = true
	req3, err := buildRequest(f3)
	if err != nil {
		t.Fatal(err)
	}
	if req3.Options.Tenant != "cli-tenant" {
		t.Errorf("overridden tenant = %q, want cli-tenant", req3.Options.Tenant)
	}
}

// TestBuildRequestResults: -results reaches the plan's results option,
// -verbose implies all (it prints every check), an unknown mode is a usage
// error, and a saved plan's own choice survives unless the flag is given.
func TestBuildRequestResults(t *testing.T) {
	cfg := writeConfig(t)
	for _, tc := range []struct {
		results string
		verbose bool
		want    engine.ResultsMode
	}{{"", false, ""}, {"failures", false, engine.ResultsFailures}, {"all", false, engine.ResultsAll}, {"", true, engine.ResultsAll}} {
		f := baseFlags()
		f.ConfigPath, f.Results, f.Verbose = cfg, tc.results, tc.verbose
		req, err := buildRequest(f)
		if err != nil || req.Options.Results != tc.want {
			t.Errorf("-results %q -verbose=%v: results %q (err %v), want %q", tc.results, tc.verbose, req.Options.Results, err, tc.want)
		}
	}
	f := baseFlags()
	f.ConfigPath, f.Results = cfg, "some"
	if _, err := buildRequest(f); err == nil {
		t.Error("-results some accepted")
	} else if _, usage := err.(*usageError); !usage {
		t.Errorf("-results some: %v (%T) is not a usage error", err, err)
	}

	planPath := filepath.Join(t.TempDir(), "plan.json")
	doc, _ := json.Marshal(plan.Request{Network: plan.Network{ConfigPath: cfg},
		Properties: []plan.Property{{Name: "fig1-no-transit"}}, Options: plan.Options{Results: engine.ResultsAll}})
	if err := os.WriteFile(planPath, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	f = baseFlags()
	f.PlanPath = planPath
	if req, err := buildRequest(f); err != nil || req.Options.Results != engine.ResultsAll {
		t.Errorf("saved plan's results lost: %q (err %v)", req.Options.Results, err)
	}
	f.Results, f.Set = "failures", map[string]bool{"results": true}
	if req, err := buildRequest(f); err != nil || req.Options.Results != engine.ResultsFailures {
		t.Errorf("-results did not override the saved plan: %q (err %v)", req.Options.Results, err)
	}
}

// writeMigratePlan saves the Figure-1 shield/retire pair in the unsafe
// order — retire first leaks transit at step 0 — as a -migrate file.
func writeMigratePlan(t *testing.T) string {
	t.Helper()
	doc := `{"network": {"generator": {"kind": "fig1"}},
	 "properties": [{"name": "fig1-no-transit"}],
	 "steps": [
	  {"label": "retire", "mutation": {"kind": "remove-export-clause", "from": "R2", "to": "ISP2", "seq": 10}},
	  {"label": "shield", "mutation": {"kind": "insert-export-deny", "from": "R2", "to": "ISP2", "seq": 5, "match": "community:100:1"}}
	 ]}`
	path := filepath.Join(t.TempDir(), "steps.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMigratePlanAppliesPropertyFlags: -property, -routers and -regions
// reach the migration plan's properties exactly as they reach a -plan
// file's, and untouched defaults leave the file's list alone.
func TestMigratePlanAppliesPropertyFlags(t *testing.T) {
	path := writeMigratePlan(t)
	for _, tc := range []struct {
		name string
		set  func(*cliFlags)
		want []plan.Property
	}{
		{"defaults", func(*cliFlags) {}, []plan.Property{{Name: "fig1-no-transit"}}},
		{"property", func(f *cliFlags) {
			f.Properties, f.Routers = "wan-peering,wan-ip-reuse", "edge-0"
			f.Set["property"], f.Set["routers"] = true, true
		}, []plan.Property{
			{Name: "wan-peering", Routers: []topology.NodeID{"edge-0"}},
			{Name: "wan-ip-reuse", Routers: []topology.NodeID{"edge-0"}},
		}},
		{"routers", func(f *cliFlags) {
			f.Routers, f.Set["routers"] = "R2", true
		}, []plan.Property{{Name: "fig1-no-transit", Routers: []topology.NodeID{"R2"}}}},
		{"regions", func(f *cliFlags) {
			f.Regions, f.Set["regions"] = "0, 1", true
		}, []plan.Property{{Name: "fig1-no-transit", Regions: []int{0, 1}}}},
	} {
		f := baseFlags()
		f.MigratePath = path
		tc.set(&f)
		p, err := migratePlan(f)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, _ := json.Marshal(p.Properties)
		want, _ := json.Marshal(tc.want)
		if string(got) != string(want) {
			t.Errorf("%s: properties %s, want %s", tc.name, got, want)
		}
	}

	f := baseFlags()
	f.MigratePath, f.Properties, f.Set["property"] = path, "no-such-suite", true
	if _, err := migratePlan(f); err == nil {
		t.Error("unknown -property accepted")
	} else if _, usage := err.(*usageError); !usage {
		t.Errorf("unknown -property: %v (%T), want usage error", err, err)
	}
}

// TestMigrateRejectsDiffAndCorpus: -migrate's file names the baseline, so
// -diff and -corpus beside it are usage errors, not silently ignored.
func TestMigrateRejectsDiffAndCorpus(t *testing.T) {
	path := writeMigratePlan(t)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, set := range []func(*cliFlags){
		func(f *cliFlags) { f.DiffPath = writeConfig(t) },
		func(f *cliFlags) { f.Corpus = "ring:1" },
	} {
		f := baseFlags()
		f.MigratePath = path
		set(&f)
		if _, err := migratePlan(f); err == nil {
			t.Errorf("%+v: accepted", f)
		} else if _, usage := err.(*usageError); !usage {
			t.Errorf("%+v: %v (%T), want usage error", f, err, err)
		}
		if code := runMigrate(f, true, false, quiet); code != 2 {
			t.Errorf("%+v: exit %d, want 2", f, code)
		}
	}
}

// TestMigratePropertyFlagChangesTheVerdict: the retire-first plan violates
// its own no-transit property at step 0 (exit 1); under -property
// fig1-liveness the same steps are verified against liveness instead, which
// they keep (exit 0).
func TestMigratePropertyFlagChangesTheVerdict(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f := baseFlags()
	f.MigratePath = writeMigratePlan(t)
	if code := runMigrate(f, true, false, quiet); code != 1 {
		t.Fatalf("the plan's own property: exit %d, want 1", code)
	}
	f.Properties, f.Set["property"] = "fig1-liveness", true
	if code := runMigrate(f, true, false, quiet); code != 0 {
		t.Fatalf("-property fig1-liveness: exit %d, want 0", code)
	}
}

// diffSpec is a 2-region WAN generator with the given edge-router count.
func diffSpec(edgeRouters int) *netgen.GeneratorSpec {
	return &netgen.GeneratorSpec{Kind: "wan", Regions: 2, RoutersPerRegion: 2,
		EdgeRouters: edgeRouters, DCsPerRegion: 1, PeersPerEdge: 1}
}

// runDiffOn compiles req — whose Options.Baseline stands for -diff — and
// runs it through runDiff on eng.
func runDiffOn(t *testing.T, eng *engine.Engine, req plan.Request) (base, upd *delta.Result) {
	t.Helper()
	c, err := plan.Compile(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, upd, err = runDiff(eng, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	return base, upd
}

// TestDiffGrowthAndNoop: a growth change re-solves only the dirty subset,
// and an identical baseline reuses everything.
func TestDiffGrowthAndNoop(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 4})
	defer eng.Close()
	peering := []plan.Property{{Name: "wan-peering"}}

	base, upd := runDiffOn(t, eng, plan.Request{Network: plan.Network{Generator: diffSpec(2)}, Properties: peering,
		Options: plan.Options{Baseline: &plan.Network{Generator: diffSpec(1)}}})
	if !base.OK || !upd.OK || base.TotalChecks != 2805 || base.DirtyChecks != 2805 {
		t.Fatalf("growth diff: baseline %+v, update ok=%v; want both verified over 2805 checks", base, upd.OK)
	}
	if upd.TotalChecks != 4818 || upd.DirtyChecks != 132 || upd.ReusedResults != 4686 || len(upd.ChangedRouters) != 6 {
		t.Fatalf("growth update: %d/%d dirty, %d reused, changed %v; want 132/4818 dirty, 4686 reused, 6 changed routers",
			upd.DirtyChecks, upd.TotalChecks, upd.ReusedResults, upd.ChangedRouters)
	}

	// Identical baseline: nothing dirty.
	_, upd = runDiffOn(t, eng, plan.Request{Network: plan.Network{Generator: diffSpec(1)}, Properties: peering,
		Options: plan.Options{Baseline: &plan.Network{Generator: diffSpec(1)}}})
	if upd.DirtyChecks != 0 || upd.ReusedResults != upd.TotalChecks || upd.TotalChecks != 2805 {
		t.Fatalf("no-op update should reuse all 2805 checks: %+v", upd)
	}
}

// TestDiffInheritsScope: an incremental run over a scoped plan
// re-enumerates only the scoped problems on every state.
func TestDiffInheritsScope(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 4})
	defer eng.Close()
	_, upd := runDiffOn(t, eng, plan.Request{Network: plan.Network{Generator: diffSpec(1)},
		Properties: []plan.Property{{Name: "wan-peering", Routers: []topology.NodeID{netgen.EdgeRouter(0)}}},
		Options:    plan.Options{Baseline: &plan.Network{Generator: diffSpec(1)}}})
	if got, want := len(upd.Problems), len(netgen.PeeringProperties(2)); got != want {
		t.Fatalf("scoped delta update ran %d problems, want %d (one router's properties)", got, want)
	}
	if upd.Suite != "wan-peering" || upd.TotalChecks != 561 || upd.ReusedResults != 561 {
		t.Errorf("scoped no-op update: label %q, %d reused of %d; want wan-peering, 561 of 561", upd.Suite, upd.ReusedResults, upd.TotalChecks)
	}
}

// TestDiffReusesStore: -diff on the engine -store builds serves its
// baseline from what an earlier run recorded and reuses retained results
// in the update.
func TestDiffReusesStore(t *testing.T) {
	spec := func(edgeRouters int) *netgen.GeneratorSpec {
		return &netgen.GeneratorSpec{Kind: "wan", Regions: 2, RoutersPerRegion: 1, EdgeRouters: edgeRouters, PeersPerEdge: 2}
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	flags := cliFlags{Store: t.TempDir(), Workers: 2}
	req := plan.Request{Network: plan.Network{Generator: spec(1)}, Properties: []plan.Property{{Name: "wan-peering"}},
		Options: plan.Options{WANRegions: 2}}
	open := func() (*engine.Engine, *store.Store) {
		eng, st, err := newEngine(flags, nil, quiet)
		if err != nil {
			t.Fatal(err)
		}
		return eng, st
	}

	eng, st := open()
	c, err := plan.Compile(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := plan.Run(eng, c, plan.RunConfig{Store: st}); err != nil || !res.OK || res.Store.Puts != 121 {
		t.Fatalf("cold run: err %v, result %+v; want 121 results recorded", err, res)
	}
	eng.Close()
	st.Close()

	eng, st = open()
	defer st.Close()
	defer eng.Close()
	req.Network = plan.Network{Generator: spec(2)}
	req.Options.Baseline = &plan.Network{Generator: spec(1)}
	base, upd := runDiffOn(t, eng, req)
	if !base.OK || !upd.OK || base.TotalChecks != 693 || base.Solved != 0 {
		t.Fatalf("baseline %+v; want 693 checks verified, all served from the store", base)
	}
	if upd.TotalChecks != 1628 || upd.DirtyChecks != 176 || upd.ReusedResults != 1452 {
		t.Fatalf("update: %d/%d dirty, %d reused; want 176/1628 dirty, 1452 reused", upd.DirtyChecks, upd.TotalChecks, upd.ReusedResults)
	}
	if ss := st.Stats(); ss.Loaded != 121 || ss.Hits == 0 {
		t.Fatalf("store %+v; want the 121 recorded results loaded and reused", ss)
	}
}

// TestDiffErrorClasses: a -diff baseline that cannot be read is a runtime
// failure (exit 1); one on which a -routers scope names a missing router is
// a usage error (exit 2).
func TestDiffErrorClasses(t *testing.T) {
	dir := t.TempDir()
	wan := filepath.Join(dir, "wan.cfg")
	small := filepath.Join(dir, "small.cfg")
	if err := os.WriteFile(wan, []byte(netgen.WANDSL(netgen.WANParams{Regions: 2, RoutersPerRegion: 1, EdgeRouters: 2, PeersPerEdge: 1}, netgen.WANBugs{})), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(small, []byte(netgen.WANDSL(netgen.WANParams{Regions: 2, RoutersPerRegion: 1, EdgeRouters: 1, PeersPerEdge: 1}, netgen.WANBugs{})), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		diff, routers string
		want          int
	}{
		{filepath.Join(dir, "missing.cfg"), "", 1},
		{small, "edge-1", 2},
	} {
		f := baseFlags()
		f.ConfigPath, f.Properties, f.WANRegions, f.DiffPath, f.Routers = wan, "wan-peering", 2, tc.diff, tc.routers
		req, err := buildRequest(f)
		if err != nil {
			t.Fatal(err)
		}
		_, err = plan.Compile(req, nil)
		if err == nil {
			t.Fatalf("-diff %s -routers %q compiled", tc.diff, tc.routers)
		}
		if code := fail(err); code != tc.want {
			t.Errorf("-diff %s -routers %q: %v: exit %d, want %d", tc.diff, tc.routers, err, code, tc.want)
		}
	}
}
