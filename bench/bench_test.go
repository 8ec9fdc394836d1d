package main

import (
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(dir)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecShape holds BENCHMARK.json to the limits of the contract and to
// the workloads the harness actually has.
func TestSpecShape(t *testing.T) {
	sp := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(sp.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the harness", n, len(workloads))
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range sp.Workloads {
		once(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the harness has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s: %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		once(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for _, m := range sp.PerLayer {
		once(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v", m)
		}
	}
}

// TestSmoke runs every workload shrunk, timed and traced, and checks that
// each metric BENCHMARK.json names comes out of every workload it applies
// to, as a usable number.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the programs and runs them")
	}
	sp := testSpec(t)
	e, err := newEnv(true)
	if err != nil {
		t.Fatal(err)
	}
	perLayer := map[string]metricSpec{}
	for _, m := range sp.PerLayer {
		perLayer[m.Name] = m
	}
	nonZero := map[string]bool{}
	for _, w := range workloads {
		r, err := w.measure(e, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if ops, failed := r.attempted(); ops == 0 || failed != 0 {
			t.Errorf("%s: %d operations, %d failed: %+v", w.name, ops, failed, r.Units)
		}
		got := r.endToEnd()
		for _, m := range sp.EndToEnd {
			if v, ok := got[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Errorf("%s: %s = %v", w.name, m.Name, v)
			}
		}

		lr, err := tracedPass(e, w, 1)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if lr.Ops == 0 || lr.Failed != 0 {
			t.Errorf("%s traced: %d operations, %d failed: %v", w.name, lr.Ops, lr.Failed, lr.Notes)
		}
		for k, v := range lr.Metrics {
			m, named := perLayer[k]
			switch {
			case !named:
				t.Errorf("%s traced: %s is not in BENCHMARK.json", w.name, k)
			case math.IsNaN(v) || math.IsInf(v, 0):
				t.Errorf("%s traced: %s = %v", w.name, k, v)
			case v < 0 && (m.Unit == "s" || m.Unit == "ms" || m.Unit == "us" || m.Unit == "count") && !strings.Contains(k, "residual"):
				t.Errorf("%s traced: %s = %v %s", w.name, k, v, m.Unit)
			}
			nonZero[k] = nonZero[k] || v != 0
		}
		if _, err := os.Stat(e.out + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s traced: %v", w.name, err)
		}
	}
	// Counts that are zero when all is well.
	quiet := map[string]bool{"solver.parity_mismatches": true, "lyserve.rejected": true, "engine.dedup_hits": true}
	for _, m := range sp.PerLayer {
		if !nonZero[m.Name] && !quiet[m.Name] {
			t.Errorf("%s is zero on every workload", m.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([5, 9], n=4) extrapolates: [4.0, 7.0, 10.0]
	if q1, q3 := quartiles([]float64{5, 9}); q1 != 4 || q3 != 10 {
		t.Errorf("quartiles of two = %v, %v, want 4, 10", q1, q3)
	}
	xs := make([]float64, 230)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs); got != 219 {
		t.Errorf("p95 of 1..230 = %v, want 219", got)
	}
	if got := tail(xs[:199]); got != 100 {
		t.Errorf("tail of 199 samples = %v, want the median 100", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "verdict_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "checks_per_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		m          metricSpec
		base, next summary
		want       string
	}{
		{lower, summary{Median: 1}, summary{Median: 1.05}, unchanged},
		{lower, summary{Median: 1}, summary{Median: 1.2}, regressed},
		{lower, summary{Median: 1}, summary{Median: 0.8}, improved},
		{lower, summary{Median: 1, Spread: 0.2}, summary{Median: 1.3}, unresolved},
		{metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}, summary{Median: 1, Spread: 0.4}, summary{Median: 1.1}, unchanged},
		{higher, summary{Median: 100}, summary{Median: 80}, regressed},
		{higher, summary{Median: 100}, summary{Median: 120}, improved},
		{failedShare, summary{}, summary{Median: 0.01}, regressed},
		{failedShare, summary{}, summary{}, unchanged},
	} {
		if got, _, _ := judge(c.m, c.base, c.next); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.base.Median, c.next.Median, got, c.want)
		}
	}
}

func TestCLIReportAndGrade(t *testing.T) {
	rep := &cliReport{}
	for _, l := range []string{
		"parsed wan.cfg: 26 routers, 41 externals, 762 sessions",
		"property: (FromPeer) => (x) @ edge-0 (no-bogons at edge-0)",
		"checks: 1413, failed: 1, unknown: 0, total time: 1ms",
		`FAIL [import] at peer-e0-0 -> edge-0: import at edge-0 from peer-e0-0: "true"`,
		"  job: 1413 checks, 0 cache hits, 0 dedup hits",
		"property: (FromPeer) => (y) @ edge-0 (no-class-e at edge-0)",
		"checks: 1413, failed: 0, unknown: 0, total time: 1ms",
		"engine: 2826 checks submitted, 2826 solved, 0 cache hits, 0 dedup hits",
		"delta update: 1 routers changed, 44/62172 checks dirty, 62128 reused, 11 solved, ok=false in 1s",
	} {
		rep.line([]byte(l))
	}
	if rep.checks != 2826 || !rep.delta.seen || rep.delta.dirty != 44 || rep.delta.ok {
		t.Fatalf("parsed %+v", rep)
	}
	x := expectation{exit: 1, problems: 2, failing: map[string]struct{}{"no-bogons@edge-0": {}}, at: "peer-e0-0 -> edge-0"}
	if ops, failed, note := x.grade(child{Exit: 1}, rep); ops != 2 || failed != 0 {
		t.Errorf("grade: %d/%d %s", failed, ops, note)
	}
	if _, failed, _ := x.grade(child{Exit: 0}, rep); failed != 2 {
		t.Errorf("wrong exit code failed %d of 2 operations", failed)
	}
	x.at = "peer-e1-0 -> edge-1"
	if _, failed, _ := x.grade(child{Exit: 1}, rep); failed != 1 {
		t.Errorf("wrong localisation failed %d operations, want 1", failed)
	}
}

func TestEdits(t *testing.T) {
	src := "route-map peer-import-e1-0 {\n  term 10 deny { match prefix-list bogons }\n  term 50 deny { match plen >= 25 }\n}\nimport x\n"
	out, err := edit{edge: 1, peer: 0}.apply(src)
	if err != nil || !strings.Contains(out, "plen >= 24") || !strings.Contains(out, "bogons") {
		t.Errorf("preserving edit: %q, %v", out, err)
	}
	out, err = edit{edge: 1, peer: 0, violating: true}.apply(src)
	if err != nil || strings.Contains(out, "bogons") || !strings.Contains(out, "plen >= 25") {
		t.Errorf("violating edit: %q, %v", out, err)
	}
	if _, err := (edit{edge: 2, peer: 0}).apply(src); err == nil {
		t.Error("edit of a missing route map succeeded")
	}
	a, b := edits(fullSizing, 7), edits(fullSizing, 7)
	if len(a) != fullSizing.scopeEdges*fullSizing.wan.PeersPerEdge || a[0] != b[0] || a[1].violating == a[0].violating {
		t.Errorf("edits: %+v", a[:2])
	}
}
