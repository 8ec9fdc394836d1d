package engine_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// mustSubmit submits a workload through the unified entry point, failing
// the test on rejection.
func mustSubmit(t *testing.T, eng *engine.Engine, w engine.Workload) *engine.Job {
	t.Helper()
	j, err := eng.Submit(context.Background(), w)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return j
}

// testWAN returns a small WAN and an overlapping peering workload: several
// properties checked at every router, the shape of the §6.1 sweep.
func testWAN(t *testing.T) (*topology.Network, []*core.SafetyProblem) {
	t.Helper()
	p := netgen.WANParams{Regions: 3, RoutersPerRegion: 2, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 2}
	n := netgen.WAN(p, netgen.WANBugs{})
	var problems []*core.SafetyProblem
	for _, prop := range netgen.PeeringProperties(p.Regions)[:3] {
		for _, r := range n.Routers() {
			problems = append(problems, netgen.PeeringProblem(n, r, prop))
		}
	}
	return n, problems
}

// signature reduces a report to its semantic content (identity and verdict
// of every check, in deterministic order), ignoring timing.
func signature(rep *core.Report) []string {
	var out []string
	for _, r := range rep.Results {
		out = append(out, fmt.Sprintf("%s|%s|%s|%v", r.Kind, r.Loc, r.Desc, r.OK))
	}
	return out
}

// TestEngineMatchesSequentialBaseline submits overlapping WAN peering jobs
// concurrently and asserts (a) every per-job report is semantically equal
// to the sequential single-worker baseline, and (b) identical checks across
// jobs are solved exactly once (the rest served by cache or in-flight
// dedup).
func TestEngineMatchesSequentialBaseline(t *testing.T) {
	_, problems := testWAN(t)

	// Sequential baseline: fresh single-worker run per problem, no sharing.
	baselines := make([][]string, len(problems))
	for i, p := range problems {
		baselines[i] = signature(core.VerifySafety(p, core.Options{Workers: 1}))
	}

	// The number of distinct check keys across the whole workload.
	unique := make(map[string]bool)
	total := 0
	for _, p := range problems {
		for _, c := range p.Checks(core.Options{}) {
			total++
			if k := c.Key(); k != "" {
				unique[k] = true
			}
		}
	}
	if len(unique) >= total {
		t.Fatalf("workload has no duplicate checks (unique=%d total=%d); test needs overlap", len(unique), total)
	}

	eng := engine.New(engine.Options{Workers: 8})
	defer eng.Close()

	// Submit every job concurrently to exercise in-flight dedup.
	jobs := make([]*engine.Job, len(problems))
	var wg sync.WaitGroup
	for i, p := range problems {
		wg.Add(1)
		go func(i int, p *core.SafetyProblem) {
			defer wg.Done()
			j, err := eng.Submit(context.Background(), engine.Workload{Safety: p})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			jobs[i] = j
		}(i, p)
	}
	wg.Wait()

	for i, j := range jobs {
		rep := j.Wait()
		if !rep.OK() {
			t.Errorf("job %d: engine verdict FAIL, baseline OK:\n%s", i, rep.Summary())
		}
		got, want := signature(rep), baselines[i]
		if len(got) != len(want) {
			t.Fatalf("job %d: %d results, baseline has %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Errorf("job %d result %d:\n  engine   %s\n  baseline %s", i, k, got[k], want[k])
			}
		}
	}

	stats := eng.Stats()
	if stats.ChecksSolved != uint64(len(unique)) {
		t.Errorf("solved %d checks, want exactly one per distinct key (%d)", stats.ChecksSolved, len(unique))
	}
	if stats.CacheHits+stats.DedupHits == 0 {
		t.Error("expected nonzero cross-job cache/dedup hits")
	}
	if got := stats.ChecksSolved + stats.CacheHits + stats.DedupHits; got != stats.ChecksSubmitted {
		t.Errorf("accounting mismatch: solved+cache+dedup = %d, submitted = %d", got, stats.ChecksSubmitted)
	}
	if stats.JobsCompleted != uint64(len(problems)) {
		t.Errorf("JobsCompleted = %d, want %d", stats.JobsCompleted, len(problems))
	}
}

// TestEngineLivenessMatchesBaseline runs the Fig-1 liveness problem (which
// includes relabeled no-interference sub-checks) through the engine.
func TestEngineLivenessMatchesBaseline(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	base, err := core.VerifyLiveness(netgen.Fig1LivenessProblem(n), core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	eng := engine.New(engine.Options{Workers: 4})
	defer eng.Close()
	rep := mustSubmit(t, eng, engine.Workload{Liveness: netgen.Fig1LivenessProblem(n)}).Wait()
	got, want := signature(rep), signature(base)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("engine liveness report differs from baseline:\n  engine   %v\n  baseline %v", got, want)
	}

	// An invalid path must fail fast, not enqueue.
	bad := netgen.Fig1LivenessProblem(n)
	bad.Steps = bad.Steps[:1]
	if _, err := eng.Submit(context.Background(), engine.Workload{Liveness: bad}); err == nil {
		t.Error("Submit accepted an invalid liveness path")
	}
}

// TestJobProgressStreams asserts a job reports every check to OnResult once,
// with monotonically complete accounting, all before Wait returns.
func TestJobProgressStreams(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()

	events, last := 0, 0
	seen := map[int]bool{}
	var job *engine.Job
	job = mustSubmit(t, eng, engine.Workload{Safety: netgen.Fig1NoTransitProblem(n),
		SubmitOptions: engine.SubmitOptions{OnResult: func(ev engine.Progress) {
			events++ // calls are serialized per job
			if ev.Completed != last+1 {
				t.Errorf("non-monotonic completion: %d after %d", ev.Completed, last)
			}
			if seen[ev.Index] || ev.Result.Desc.String() == "" {
				t.Errorf("check %d reported twice or without its identity", ev.Index)
			}
			seen[ev.Index] = true
			last = ev.Completed
		}}})
	rep := job.Wait()
	if events != rep.NumChecks() || len(seen) != rep.NumChecks() {
		t.Errorf("got %d progress events for %d distinct checks, want %d", events, len(seen), rep.NumChecks())
	}
	if last != rep.NumChecks() {
		t.Errorf("final completed = %d, want %d", last, rep.NumChecks())
	}
	st := job.Stats()
	if st.Completed != st.Checks {
		t.Errorf("job stats completed = %d, want %d", st.Completed, st.Checks)
	}
}

// TestRepeatedJobIsAllCacheHits verifies the LRU result cache across
// non-overlapping (sequential) submissions of the same problem.
func TestRepeatedJobIsAllCacheHits(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	eng := engine.New(engine.Options{Workers: 4})
	defer eng.Close()

	first := mustSubmit(t, eng, engine.Workload{Safety: netgen.Fig1NoTransitProblem(n)})
	first.Wait()
	second := mustSubmit(t, eng, engine.Workload{Safety: netgen.Fig1NoTransitProblem(n)})
	rep := second.Wait()

	st := second.Stats()
	if st.CacheHits != rep.NumChecks() {
		t.Errorf("second run: %d cache hits, want all %d checks", st.CacheHits, rep.NumChecks())
	}
	if !rep.OK() {
		t.Errorf("cached report must keep the verdict:\n%s", rep.Summary())
	}
}

// TestEngineDetectsBugsLikeBaseline makes sure shared results do not mask
// failures: the Fig-1 transit-tag bug must fail identically on the engine.
func TestEngineDetectsBugsLikeBaseline(t *testing.T) {
	buggy := netgen.Fig1(netgen.Fig1Options{OmitTransitTag: true})
	base := core.VerifySafety(netgen.Fig1NoTransitProblem(buggy), core.Options{Workers: 1})
	if base.OK() {
		t.Fatal("baseline must fail on the buggy network")
	}

	eng := engine.New(engine.Options{Workers: 4})
	defer eng.Close()
	rep := mustSubmit(t, eng, engine.Workload{Safety: netgen.Fig1NoTransitProblem(buggy)}).Wait()
	if rep.OK() {
		t.Fatal("engine must reproduce the failure")
	}
	if fmt.Sprint(signature(rep)) != fmt.Sprint(signature(base)) {
		t.Errorf("failure reports differ:\n  engine   %v\n  baseline %v", signature(rep), signature(base))
	}
}

// TestEngineCacheDisabled still dedups in-flight work but never serves
// results across completed jobs.
func TestEngineCacheDisabled(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	eng := engine.New(engine.Options{Workers: 2, CacheSize: -1})
	defer eng.Close()

	mustSubmit(t, eng, engine.Workload{Safety: netgen.Fig1NoTransitProblem(n)}).Wait()
	second := mustSubmit(t, eng, engine.Workload{Safety: netgen.Fig1NoTransitProblem(n)})
	second.Wait()
	if st := second.Stats(); st.CacheHits != 0 {
		t.Errorf("cache disabled but second run had %d cache hits", st.CacheHits)
	}
	if st := eng.Stats(); st.CacheCap != 0 || st.CacheLen != 0 {
		t.Errorf("cache disabled but stats report capacity %d / len %d", st.CacheCap, st.CacheLen)
	}
}

// TestOriginateVerdictNotSharedAcrossOriginationValues: two problems whose
// originate checks at R1 -> R2 differ only in the value a same-named ghost
// takes on R1's originated routes run on one engine. The second must be
// decided on its own content, not served the first one's OK from the cache.
func TestOriginateVerdictNotSharedAcrossOriginationValues(t *testing.T) {
	n := netgen.Fig1(netgen.Fig1Options{})
	e := topology.Edge{From: "R1", To: "R2"}
	problem := func(waypoint topology.NodeID) *core.SafetyProblem {
		return &core.SafetyProblem{Network: n,
			Property:   core.Property{Loc: core.AtRouter("R2"), Pred: spec.True()},
			Invariants: core.NewInvariants(spec.True()).SetEdge(e, spec.Ghost("Via")),
			Ghosts:     []core.GhostDef{core.GhostWaypoint("Via", n, waypoint)}}
	}
	originateOK := func(rep *core.Report) bool {
		for _, r := range rep.Results {
			if r.Kind == core.OriginateCheck && r.Loc == core.AtEdge(e) {
				return r.OK
			}
		}
		return true // folded: it passed
	}

	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	for _, c := range []struct {
		waypoint topology.NodeID
		want     bool
	}{{"R1", true}, {"R3", false}} {
		rep := mustSubmit(t, eng, engine.Workload{Kind: engine.KindSafety, Safety: problem(c.waypoint)}).Wait()
		if got := originateOK(rep); got != c.want {
			t.Errorf("waypoint %s: originate check at %s ok=%v, want %v", c.waypoint, e, got, c.want)
		}
		if want := originateOK(core.VerifySafety(problem(c.waypoint), core.Options{Workers: 1})); want != c.want {
			t.Fatalf("waypoint %s: sequential originate verdict %v, test premise wants %v", c.waypoint, want, c.want)
		}
	}
}
