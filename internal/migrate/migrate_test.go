package migrate_test

import (
	"context"
	"errors"
	"testing"

	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/migrate"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
)

// fig1Plan builds a standalone migration plan on the Figure-1 network with
// the no-transit property — the paper's running example, where the filter
// swap's safety depends on step order.
func fig1Plan(steps []netgen.MigrationStep, unordered bool) migrate.Plan {
	return migrate.Plan{
		Network:    &plan.Network{Generator: &netgen.GeneratorSpec{Kind: "fig1"}},
		Properties: []plan.Property{{Name: "fig1-no-transit"}},
		Steps:      planSteps(steps),
		Unordered:  unordered,
	}
}

// planSteps converts netgen's labeled migration sequences to plan steps.
func planSteps(ms []netgen.MigrationStep) []migrate.Step {
	out := make([]migrate.Step, len(ms))
	for i, m := range ms {
		mut := m.Mutation
		out[i] = migrate.Step{Label: m.Label, Mutation: &mut}
	}
	return out
}

func compileRun(t *testing.T, p migrate.Plan, cfg migrate.RunConfig) *migrate.Result {
	t.Helper()
	c, err := migrate.Compile(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{})
	defer eng.Close()
	res, err := migrate.Run(context.Background(), eng, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// reverse returns the steps in reverse order.
func reverse(steps []netgen.MigrationStep) []netgen.MigrationStep {
	out := make([]netgen.MigrationStep, len(steps))
	for i, s := range steps {
		out[len(steps)-1-i] = s
	}
	return out
}

// TestOrderedSafeOrderReusesDelta: the safe shield-retire order verifies
// end to end, and every step re-solves only its own dirty subset.
func TestOrderedSafeOrderReusesDelta(t *testing.T) {
	res := compileRun(t, fig1Plan(netgen.Fig1ShieldRetire(), false), migrate.RunConfig{})
	if !res.OK || !res.BaselineOK || res.ViolatedStep != -1 {
		t.Fatalf("safe order must verify: %+v", res)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("want 2 step results, got %d", len(res.Steps))
	}
	for _, sr := range res.Steps {
		if !sr.OK || sr.Dirty == 0 || sr.Reused == 0 || sr.Dirty >= sr.Checks {
			t.Fatalf("step %s must mix dirty work and reuse: %+v", sr.Label, sr)
		}
	}
}

// TestFirstViolatingStepParity: walking the unsafe retire-shield order
// stops at step 0, and the reported failing checks are exactly the hard
// failures a from-scratch verification of that intermediate state finds —
// the delta walk loses nothing against single-shot verification.
func TestFirstViolatingStepParity(t *testing.T) {
	steps := reverse(netgen.Fig1ShieldRetire()) // retire first: leaks transit
	var events []migrate.Event
	res := compileRun(t, fig1Plan(steps, false), migrate.RunConfig{
		Sink: func(ev migrate.Event) { events = append(events, ev) },
	})
	if res.OK || res.ViolatedStep != 0 || res.ViolatedLabel != "retire" || res.Undecided {
		t.Fatalf("retire-first must violate at step 0: %+v", res)
	}
	if len(res.FailingChecks) == 0 {
		t.Fatal("a violating step must carry its failing checks")
	}
	violated := 0
	for _, ev := range events {
		if ev.Type == migrate.EvStepViolated {
			violated++
			if ev.Step != 0 || ev.PlanStep != 0 {
				t.Fatalf("step_violated at step %d/plan %d, want 0/0", ev.Step, ev.PlanStep)
			}
		}
	}
	if violated != 1 {
		t.Fatalf("want exactly one step_violated event, got %d", violated)
	}

	// Single-shot parity: baseline a fresh verifier directly on the
	// post-retire state and compare the hard-failure sets.
	c, err := migrate.Compile(fig1Plan(steps, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := netgen.ApplyMutation(c.Inner.Network, steps[0].Mutation)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{})
	defer eng.Close()
	v := delta.NewVerifierFor(eng, c.Inner)
	full, err := v.Baseline(bad)
	if err != nil {
		t.Fatal(err)
	}
	if full.OK {
		t.Fatal("single-shot verification of the post-retire state must fail too")
	}
	want := map[string]bool{}
	for _, p := range full.Problems {
		if p.Report == nil {
			continue
		}
		for _, cr := range p.Report.HardFailures() {
			want[p.Name+"|"+cr.Desc.String()] = true
		}
	}
	got := map[string]bool{}
	for _, fc := range res.FailingChecks {
		got[fc.Problem+"|"+fc.Desc] = true
	}
	if len(got) != len(want) {
		t.Fatalf("failing-check sets differ: migrate %v vs single-shot %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("single-shot failure %q missing from the migrate report", k)
		}
	}
}

// fig1DSL mirrors netgen.Fig1 in configuration-language form, for the
// config-step fast path (mutation steps have no source text to fingerprint).
const fig1DSL = `
node R1 { as 65000 role edge }
node R2 { as 65000 role edge }
node R3 { as 65000 role edge }
external ISP1 { as 174 }
external ISP2 { as 3356 }
external Customer { as 64512 }

peering ISP1 R1
peering ISP2 R2
peering Customer R3
peering R1 R2
peering R1 R3
peering R2 R3

prefix-list cust { 10.42.0.0/16 ge 16 le 24 }

route-map r1-import-isp1 {
  term 10 deny { match prefix-list cust }
  term 20 permit { set community add 100:1 }
}
route-map r2-import-isp2 {
  term 10 deny { match prefix-list cust }
  term 20 permit { }
}
route-map r2-export-isp2 {
  term 10 deny { match community 100:1 }
  term 20 permit { }
}
route-map r3-import-customer {
  term 10 permit {
    match prefix-list cust
    set community none
  }
}

import ISP1 -> R1 map r1-import-isp1
import ISP2 -> R2 map r2-import-isp2
export R2 -> ISP2 map r2-export-isp2
import Customer -> R3 map r3-import-customer

originate R1 -> R2 route 10.50.0.0/16 lp 100
originate R1 -> R3 route 10.50.0.0/16 lp 100
originate R1 -> ISP1 route 10.50.0.0/16 lp 100
`

// TestCommentOnlyConfigStepFastPath: a step whose config parses to the
// pinned network (a comment-only rollout) is reported unchanged by the
// verifier — no dirty checks, no solves.
func TestCommentOnlyConfigStepFastPath(t *testing.T) {
	p := migrate.Plan{
		Network:    &plan.Network{Config: fig1DSL},
		Properties: []plan.Property{{Name: "fig1-no-transit"}},
		Steps: []migrate.Step{
			{Label: "annotate", Config: "# rollout ticket NET-1234\n" + fig1DSL},
		},
	}
	res := compileRun(t, p, migrate.RunConfig{})
	if !res.OK || len(res.Steps) != 1 {
		t.Fatalf("comment-only plan must verify: %+v", res)
	}
	sr := res.Steps[0]
	if !sr.Unchanged || sr.Dirty != 0 || sr.Solved != 0 {
		t.Fatalf("comment-only step must take the no-op fast path: %+v", sr)
	}
}

// permutations returns every ordering of [0, n).
func permutations(n int) [][]int {
	var out [][]int
	var rec func(cur []int, used uint)
	rec = func(cur []int, used uint) {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < n; i++ {
			if used&(1<<uint(i)) == 0 {
				rec(append(cur, i), used|1<<uint(i))
			}
		}
	}
	rec(nil, 0)
	return out
}

// TestSearchFindsTheOneSafeOrder: of the six orderings of the fig1 filter
// swap exactly one is safe, and the unordered search finds it — with memo
// hits proving intermediate states are shared between candidate orders.
func TestSearchFindsTheOneSafeOrder(t *testing.T) {
	steps := netgen.Fig1FilterSwap()

	// Ground truth first: walk every ordering as an ordered plan and count
	// the safe ones.
	safe := 0
	for _, perm := range permutations(len(steps)) {
		ordered := make([]netgen.MigrationStep, len(perm))
		for i, idx := range perm {
			ordered[i] = steps[idx]
		}
		res := compileRun(t, fig1Plan(ordered, false), migrate.RunConfig{})
		if res.OK {
			safe++
			if ordered[0].Label != "shield" || ordered[1].Label != "retire" {
				t.Fatalf("unexpected safe order %v", perm)
			}
		}
	}
	if safe != 1 {
		t.Fatalf("the filter swap must have exactly one safe order, found %d", safe)
	}

	res := compileRun(t, fig1Plan(steps, true), migrate.RunConfig{})
	if !res.OK || res.Infeasible {
		t.Fatalf("search must find the safe order: %+v", res)
	}
	if len(res.OrderLabels) != 3 || res.OrderLabels[0] != "shield" ||
		res.OrderLabels[1] != "retire" || res.OrderLabels[2] != "reinstate" {
		t.Fatalf("found order %v, want shield retire reinstate", res.OrderLabels)
	}
	if res.MemoHits == 0 {
		t.Fatalf("the reinstated state equals the post-shield state; expected a memo hit: %+v", res)
	}
	if len(res.Steps) != 3 {
		t.Fatalf("the winning chain must report all 3 steps, got %d", len(res.Steps))
	}
}

// TestSearchInfeasible: retire+reinstate without the shield has no safe
// order (retire-first leaks transit, reinstate-first hits the occupied
// sequence number); the search must prove that and explain the blocks.
func TestSearchInfeasible(t *testing.T) {
	steps := netgen.Fig1FilterSwap()[1:]
	res := compileRun(t, fig1Plan(steps, true), migrate.RunConfig{})
	if res.OK || !res.Infeasible {
		t.Fatalf("retire+reinstate must be infeasible: %+v", res)
	}
	if res.Explanation == nil || len(res.Explanation.Blocked) == 0 {
		t.Fatalf("infeasibility must explain what blocked every continuation: %+v", res.Explanation)
	}
	if res.Explanation.BudgetExhausted {
		t.Fatal("a two-step set must be proven infeasible, not budgeted out")
	}
	if len(res.Explanation.SafePrefix) != 0 {
		t.Fatalf("no step is safe first; safe prefix = %v", res.Explanation.SafePrefix)
	}
}

// TestSearchBudgetExhausted: a budget of one state cannot decide the
// three-step swap; the result must say so rather than claim infeasibility.
func TestSearchBudgetExhausted(t *testing.T) {
	p := fig1Plan(netgen.Fig1FilterSwap(), true)
	p.SearchBudget = 1
	res := compileRun(t, p, migrate.RunConfig{})
	if res.OK || !res.Infeasible || res.Explanation == nil || !res.Explanation.BudgetExhausted {
		t.Fatalf("budget of 1 must exhaust, not decide: %+v", res)
	}
	if res.SearchStates > 1 {
		t.Fatalf("verified %d states under a budget of 1", res.SearchStates)
	}
}

// TestCancelMidPlan: cancelling the context between steps aborts the walk
// with the context's error.
func TestCancelMidPlan(t *testing.T) {
	c, err := migrate.Compile(fig1Plan(netgen.Fig1ShieldRetire(), false), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{})
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	res, err := migrate.Run(ctx, eng, c, migrate.RunConfig{
		Sink: func(ev migrate.Event) {
			if ev.Type == migrate.EvBaseline {
				cancel() // the walk re-checks the context before each step
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if res == nil || res.OK {
		t.Fatalf("cancelled run must not report success: %+v", res)
	}
}

// TestSessionRollbackAndRepin drives the session seams (RunConfig.Verifier):
// a violating plan restores the pinned baseline; a safe plan leaves the
// final state pinned as the new baseline.
func TestSessionRollbackAndRepin(t *testing.T) {
	c, err := migrate.Compile(fig1Plan(netgen.Fig1ShieldRetire(), false), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{})
	defer eng.Close()
	v := delta.NewVerifierFor(eng, c.Inner)
	v.SetWorkload(c.Inner.Workload())
	if _, err := v.Baseline(c.Inner.Network); err != nil {
		t.Fatal(err)
	}
	baseFP := v.Fingerprint()

	// Violating order: the session must end back on its baseline.
	bad, err := migrate.Compile(fig1Plan(reverse(netgen.Fig1ShieldRetire()), false), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := migrate.Run(context.Background(), eng, bad, migrate.RunConfig{Verifier: v})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.ViolatedStep != 0 {
		t.Fatalf("bad order must violate at step 0: %+v", res)
	}
	if res.Baseline != nil {
		t.Fatal("a session run must not re-baseline the pinned state")
	}
	if v.Fingerprint() != baseFP {
		t.Fatalf("failed migration moved the session: %s -> %s", baseFP, v.Fingerprint())
	}

	// Safe order: the final state is the new baseline.
	res, err = migrate.Run(context.Background(), eng, c, migrate.RunConfig{Verifier: v})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("safe order must verify: %+v", res)
	}
	want := c.Inner.Network
	for _, s := range netgen.Fig1ShieldRetire() {
		if want, err = netgen.ApplyMutation(want, s.Mutation); err != nil {
			t.Fatal(err)
		}
	}
	if v.Fingerprint() != want.Fingerprint() {
		t.Fatalf("successful migration must pin the final state: %s != %s", v.Fingerprint(), want.Fingerprint())
	}
}

// TestCompileRejects: malformed plans are usage errors (plan.RequestError),
// decided before anything runs.
func TestCompileRejects(t *testing.T) {
	shield := netgen.Fig1FilterSwap()[0].Mutation
	net := &plan.Network{Generator: &netgen.GeneratorSpec{Kind: "fig1"}}
	props := []plan.Property{{Name: "fig1-no-transit"}}
	cases := []struct {
		name string
		p    migrate.Plan
	}{
		{"no network", migrate.Plan{Properties: props, Steps: []migrate.Step{{Mutation: &shield}}}},
		{"no steps", migrate.Plan{Network: net, Properties: props}},
		{"config and mutation", migrate.Plan{Network: net, Properties: props,
			Steps: []migrate.Step{{Config: fig1DSL, Mutation: &shield}}}},
		{"neither config nor mutation", migrate.Plan{Network: net, Properties: props,
			Steps: []migrate.Step{{Label: "empty"}}}},
		{"bad mutation", migrate.Plan{Network: net, Properties: props,
			Steps: []migrate.Step{{Mutation: &netgen.MutationSpec{Kind: "frobnicate"}}}}},
		{"unordered single step", migrate.Plan{Network: net, Properties: props,
			Steps: []migrate.Step{{Mutation: &shield}}, Unordered: true}},
		{"unordered config step", migrate.Plan{Network: net, Properties: props,
			Steps: []migrate.Step{{Mutation: &shield}, {Config: fig1DSL}}, Unordered: true}},
		{"negative budget", migrate.Plan{Network: net, Properties: props,
			Steps: []migrate.Step{{Mutation: &shield}}, SearchBudget: -1}},
	}
	for _, tc := range cases {
		_, err := migrate.Compile(tc.p, nil)
		var reqErr *plan.RequestError
		if !errors.As(err, &reqErr) {
			t.Errorf("%s: err = %v, want plan.RequestError", tc.name, err)
		}
	}

	// The session path pins network and properties; a body carrying them is
	// rejected.
	inner, err := plan.Compile(plan.Request{Network: *net, Properties: props}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = migrate.CompileSteps(migrate.Plan{Network: net,
		Steps: []migrate.Step{{Mutation: &shield}}}, inner)
	var reqErr *plan.RequestError
	if !errors.As(err, &reqErr) {
		t.Errorf("CompileSteps with a network: err = %v, want plan.RequestError", err)
	}
}

// TestCommutingStepsSearchLinearStates: k tightenings of distinct WAN edge
// routers commute, so the unordered search verifies exactly k states — one
// chain in canonical order — not k! orderings, and each step re-solves only
// its own router's dirty checks however long the plan grows.
func TestCommutingStepsSearchLinearStates(t *testing.T) {
	wan := &netgen.GeneratorSpec{Kind: "wan", Regions: 2, RoutersPerRegion: 1,
		EdgeRouters: 8, DCsPerRegion: 1, PeersPerEdge: 1}
	dirtyPerStep := -1
	for _, k := range []int{2, 4, 8} {
		res := compileRun(t, migrate.Plan{
			Network:    &plan.Network{Generator: wan},
			Properties: []plan.Property{{Name: "wan-peering"}},
			Options:    plan.Options{WANRegions: wan.Regions},
			Steps:      planSteps(netgen.WANTightenSteps(k)),
			Unordered:  true,
		}, migrate.RunConfig{})
		if !res.OK || res.SearchStates != k || len(res.Steps) != k {
			t.Fatalf("k=%d: ok=%v, %d states verified, %d steps; want ok and %d of each",
				k, res.OK, res.SearchStates, len(res.Steps), k)
		}
		for _, sr := range res.Steps {
			if dirtyPerStep < 0 {
				dirtyPerStep = sr.Dirty
			}
			if sr.Dirty == 0 || sr.Dirty != dirtyPerStep || sr.Dirty >= sr.Checks {
				t.Fatalf("k=%d step %s: %d dirty of %d checks, want every step's own %d",
					k, sr.Label, sr.Dirty, sr.Checks, dirtyPerStep)
			}
		}
	}
}
