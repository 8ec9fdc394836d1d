package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/logging"
	"lightyear/internal/netgen"
	"lightyear/internal/telemetry"
)

// TestSolveProvenance: a pigeonhole check that genuinely requires CDCL
// search surfaces identical conflict/decision provenance in the per-check
// CheckResult, the job stats, the engine's per-backend stats, the solve
// span's attributes, and the conflicts-per-check histogram.
func TestSolveProvenance(t *testing.T) {
	rec := telemetry.New(0)
	eng := engine.New(engine.Options{Workers: 1, CacheSize: -1, Telemetry: rec})
	defer eng.Close()

	n := netgen.Fig1(netgen.Fig1Options{})
	j, err := eng.Submit(context.Background(), engine.Workload{Safety: netgen.StressProblem(n, 4)})
	if err != nil {
		t.Fatal(err)
	}
	rep := j.Wait()
	if !rep.OK() {
		t.Fatalf("pigeonhole refutation did not verify:\n%s", rep.Summary())
	}

	// The implication check carries the search load; its CheckResult records
	// the per-check provenance.
	var sum core.SolveStats
	var deep *core.CheckResult
	for i := range rep.Results {
		sum.Add(rep.Results[i].Solver)
		if rep.Results[i].Solver.Conflicts > 0 {
			deep = &rep.Results[i]
		}
	}
	if deep == nil {
		t.Fatal("no check recorded conflicts; pigeonhole should force search")
	}
	if deep.Solver.Decisions == 0 || deep.Solver.Learned == 0 {
		t.Errorf("deep check provenance incomplete: %+v", deep.Solver)
	}
	if deep.NumTerms == 0 {
		t.Error("deep check records no encoding term count")
	}

	// Job stats aggregate exactly the delivered results.
	if js := j.Stats(); js.Solver != sum {
		t.Errorf("job solver stats = %+v, want sum of results %+v", js.Solver, sum)
	}

	// Per-backend engine stats carry the same totals (one job, no cache).
	if bs := eng.Stats().Backends["native"]; bs.Solver != sum {
		t.Errorf("backend solver stats = %+v, want %+v", bs.Solver, sum)
	}

	// The solve span's attributes match the job's summed depth.
	snap, ok := rec.Trace(j.TraceID())
	if !ok {
		t.Fatal("job trace not in ring")
	}
	var attrs map[string]string
	for _, s := range snap.Spans {
		if s.Name == "solve:native" {
			attrs = s.Attrs
		}
	}
	if attrs == nil {
		t.Fatalf("no solve:native span in trace: %+v", snap.Spans)
	}
	for key, want := range map[string]int64{
		"conflicts": sum.Conflicts,
		"decisions": sum.Decisions,
		"restarts":  sum.Restarts,
		"learned":   sum.Learned,
	} {
		if attrs[key] != strconv.FormatInt(want, 10) {
			t.Errorf("solve span attr %s = %q, want %d", key, attrs[key], want)
		}
	}

	// The per-check depth histograms observed the solves.
	var b strings.Builder
	if err := rec.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lightyear_conflicts_per_check_count{backend="native"}`,
		`lightyear_conflicts_per_check_sum{backend="native"} ` + strconv.FormatInt(sum.Conflicts, 10),
		`lightyear_clauses_per_check_sum{backend="native"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSlowCheckLog: a check crossing the conflict threshold is
// logged as a structured "slow check" line carrying the same provenance
// counters the CheckResult records.
func TestSlowCheckLog(t *testing.T) {
	var buf bytes.Buffer
	logger, err := logging.Config{Level: "info", Format: "json"}.Build(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer engine.SetSlowCheckConflicts(1)()
	eng := engine.New(engine.Options{Workers: 1, CacheSize: -1, Logger: logger})
	defer eng.Close()

	n := netgen.Fig1(netgen.Fig1Options{})
	j, err := eng.Submit(context.Background(), engine.Workload{Safety: netgen.StressProblem(n, 4), Tenant: "ops"})
	if err != nil {
		t.Fatal(err)
	}
	rep := j.Wait()

	var want core.SolveStats
	for i := range rep.Results {
		if rep.Results[i].Solver.Conflicts > 0 {
			want = rep.Results[i].Solver
		}
	}
	var logged struct {
		Msg       string `json:"msg"`
		Component string `json:"component"`
		Tenant    string `json:"tenant"`
		Backend   string `json:"backend"`
		Status    string `json:"status"`
		Conflicts int64  `json:"conflicts"`
		Decisions int64  `json:"decisions"`
		Learned   int64  `json:"learned"`
		Terms     int    `json:"terms"`
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.Contains(line, "slow check") {
			continue
		}
		if err := json.Unmarshal([]byte(line), &logged); err != nil {
			t.Fatalf("slow-check line is not JSON: %v\n%s", err, line)
		}
		if logged.Conflicts == want.Conflicts {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no slow-check line with %d conflicts in log:\n%s", want.Conflicts, buf.String())
	}
	if logged.Component != "engine" || logged.Tenant != "ops" || logged.Backend != "native" {
		t.Errorf("slow-check identity attrs wrong: %+v", logged)
	}
	if logged.Status != "ok" || logged.Decisions != want.Decisions || logged.Learned != want.Learned || logged.Terms == 0 {
		t.Errorf("slow-check provenance mismatch: got %+v, want %+v", logged, want)
	}
}
