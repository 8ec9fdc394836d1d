package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
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
	f.Workers = 8
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
	if req.Options.Workers != 8 || req.Options.WANRegions != 3 {
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
		Options: plan.Options{WANRegions: 2, Workers: 2},
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
		req.Options.WANRegions != 2 || req.Options.Workers != 2 {
		t.Fatalf("plan file not honored: %+v", req)
	}

	// Explicit -workers overrides the plan; the untouched -property default
	// does not.
	f.Workers = 16
	f.Set["workers"] = true
	req, err = buildRequest(f)
	if err != nil {
		t.Fatal(err)
	}
	if req.Options.Workers != 16 || len(req.Properties) != 2 {
		t.Fatalf("flag override wrong: %+v", req)
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
