package fabric

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/solver"
)

// startWorker runs an in-process worker server and returns its host:port.
func startWorker(t *testing.T, opts ServerOptions) (string, *httptest.Server) {
	t.Helper()
	if opts.Backend == nil {
		opts.Backend = solver.Native(0)
	}
	srv := httptest.NewServer(NewServer(opts))
	t.Cleanup(srv.Close)
	u, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host, srv
}

// newRemote builds a private-pool Remote over the given workers with test
// timings: tight backoff, no probe churn during short tests.
func newRemote(t *testing.T, workers ...string) *Remote {
	t.Helper()
	r, err := New(Config{
		Workers:       workers,
		RetryBackoff:  time.Millisecond,
		ProbeInterval: time.Hour, // probes off: tests drive breaker state via solves
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// remotableObligations are the non-concrete checks of the Fig1 no-transit
// problem (originate checks bypass the fabric by design), with both OK and
// Fail verdicts when built on the buggy network.
func remotableObligations(t *testing.T, buggy bool) []*core.Obligation {
	t.Helper()
	n := netgen.Fig1(netgen.Fig1Options{OmitTransitTag: buggy})
	p := netgen.Fig1NoTransitProblem(n)
	var out []*core.Obligation
	for _, c := range p.Checks(core.Options{}) {
		if ob := c.Obligation(); !ob.Concrete() {
			out = append(out, ob)
		}
	}
	if len(out) == 0 {
		t.Fatal("no remotable obligations")
	}
	return out
}

// TestRingDeterminismAndCoverage: pick is stable per key, prefers distinct
// workers in order, and spreads keys across the whole fleet.
func TestRingDeterminismAndCoverage(t *testing.T) {
	p := newPool([]string{"a:1", "b:1", "c:1"}, sharedClient, nil, time.Hour, 3)
	defer p.close()
	hits := map[string]int{}
	for i := 0; i < 300; i++ {
		key := strings.Repeat("k", i%7+1) + string(rune('a'+i%26))
		first := p.pick(key)
		if len(first) != 3 {
			t.Fatalf("pick returned %d workers, want 3", len(first))
		}
		seen := map[string]bool{}
		for _, w := range first {
			if seen[w.addr] {
				t.Fatalf("pick repeated worker %s", w.addr)
			}
			seen[w.addr] = true
		}
		again := p.pick(key)
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("pick not deterministic for %q", key)
			}
		}
		hits[first[0].addr]++
	}
	for addr, n := range hits {
		if n == 0 {
			t.Errorf("worker %s owns no keys", addr)
		}
		t.Logf("%s owns %d/300 keys", addr, n)
	}
	if len(hits) != 3 {
		t.Fatalf("only %d workers own keys, want 3", len(hits))
	}
}

// TestRemoteSolveRoundTrip: a two-worker fleet decides real obligations with
// the same verdicts as a local solve, stamps fleet provenance, and shards
// work across both workers by key.
func TestRemoteSolveRoundTrip(t *testing.T) {
	a1, _ := startWorker(t, ServerOptions{Name: "w1"})
	a2, _ := startWorker(t, ServerOptions{Name: "w2"})
	r := newRemote(t, a1, a2)
	native := solver.Native(0)

	owned := map[string]int{} // obligations each worker is the primary for
	for _, buggy := range []bool{false, true} {
		fails := 0
		for _, ob := range remotableObligations(t, buggy) {
			owned[r.pool.pick(ob.Key())[0].addr]++
			want := native.Solve(context.Background(), ob, solver.Budget{})
			got := r.Solve(context.Background(), ob, solver.Budget{})
			if got.Status != want.Status {
				t.Fatalf("%q: remote=%v local=%v", ob.Desc, got.Status, want.Status)
			}
			if !strings.HasPrefix(got.Backend, "remote(") || !strings.HasSuffix(got.Backend, ")/native") {
				t.Fatalf("%q: provenance %q, want remote(<addr>)/native", ob.Desc, got.Backend)
			}
			if got.Status == core.StatusFail {
				fails++
				if got.Counterexample == nil {
					t.Fatalf("%q: failing verdict without counterexample", ob.Desc)
				}
			}
		}
		if buggy && fails == 0 {
			t.Fatal("buggy network produced no failing verdict over the fabric")
		}
	}

	st := r.Stats()
	var total int64
	for _, w := range st.Workers {
		total += w.Solved
		// The ring is seeded by the workers' (random) listen addresses, so
		// which worker owns what varies; who owns it must have solved it.
		if w.Solved == 0 && owned[w.Addr] > 0 {
			t.Errorf("worker %s owns %d obligations and solved none", w.Addr, owned[w.Addr])
		}
	}
	if total == 0 {
		t.Fatal("no remote solves recorded")
	}
	if st.Fallbacks != 0 {
		t.Fatalf("unexpected local fallbacks: %d", st.Fallbacks)
	}
}

// TestBudgetForwarded: the coordinator's conflict budget rides the wire — a
// 1-conflict budget leaves the pigeonhole check Unknown on the worker, and
// the Unknown comes back as a decoded verdict, not an error.
func TestBudgetForwarded(t *testing.T) {
	addr, _ := startWorker(t, ServerOptions{})
	r := newRemote(t, addr)
	p := netgen.StressProblem(netgen.Fig1(netgen.Fig1Options{}), 4)
	var hard *core.Obligation
	for _, c := range p.Checks(core.Options{}) {
		ob := c.Obligation()
		if ob.Concrete() {
			continue
		}
		// The pigeonhole implication is the one check a 1-conflict budget
		// cannot decide; identify it by that behavior.
		if out := r.Solve(context.Background(), ob, solver.Budget{Conflicts: 1}); out.Status == core.StatusUnknown {
			hard = ob
			break
		}
	}
	if hard == nil {
		t.Fatal("no obligation was budget-limited; budget not forwarded to the worker")
	}
	if out := r.Solve(context.Background(), hard, solver.Budget{}); out.Status != core.StatusOK {
		t.Fatalf("unlimited remote solve returned %v, want ok", out.Status)
	}
}

// TestFailoverOnWorkerDeath: killing the worker that owns a shard moves its
// solves to the ring successor — the verdict is still decided, the failover
// is counted, and the dead worker's breaker trips.
func TestFailoverOnWorkerDeath(t *testing.T) {
	a1, s1 := startWorker(t, ServerOptions{Name: "w1"})
	a2, s2 := startWorker(t, ServerOptions{Name: "w2"})
	r := newRemote(t, a1, a2)
	native := solver.Native(0)

	obs := remotableObligations(t, false)
	// Find obligations whose primary shard is each worker.
	byPrimary := map[string]*core.Obligation{}
	for _, ob := range obs {
		byPrimary[r.pool.pick(ob.Key())[0].addr] = ob
	}
	if len(byPrimary) != 2 {
		t.Skipf("suite too small to cover both shards: %d", len(byPrimary))
	}

	// Kill w1 (SIGKILL-equivalent: the listener drops, connections refuse)
	// and solve an obligation it owned.
	s1.Close()
	ob := byPrimary[a1]
	want := native.Solve(context.Background(), ob, solver.Budget{})
	got := r.Solve(context.Background(), ob, solver.Budget{})
	if got.Status != want.Status || got.Status == core.StatusUnknown {
		t.Fatalf("failover solve: remote=%v local=%v", got.Status, want.Status)
	}
	if !strings.Contains(got.Backend, a2) {
		t.Fatalf("failover provenance %q does not name survivor %s", got.Backend, a2)
	}
	st := r.Stats()
	if st.Failovers == 0 {
		t.Fatal("failover not counted")
	}
	for _, w := range st.Workers {
		if w.Addr == a1 && w.Errors == 0 {
			t.Errorf("dead worker recorded no errors: %+v", w)
		}
	}

	// Kill w2 as well: the fleet is gone, solves degrade to the local
	// fallback and stay correct.
	s2.Close()
	got = r.Solve(context.Background(), ob, solver.Budget{})
	if got.Status != want.Status {
		t.Fatalf("fallback solve: remote=%v local=%v", got.Status, want.Status)
	}
	if !strings.HasPrefix(got.Backend, "remote/fallback:") {
		t.Fatalf("fallback provenance %q, want remote/fallback:<name>", got.Backend)
	}
	if r.Stats().Fallbacks == 0 {
		t.Fatal("fallback not counted")
	}
}

// TestBreakerShiftsPreference: once a worker's breaker trips, later picks
// prefer the survivor first, so retries stop paying the dead worker's
// timeout on every solve.
func TestBreakerShiftsPreference(t *testing.T) {
	a1, s1 := startWorker(t, ServerOptions{})
	a2, s2 := startWorker(t, ServerOptions{})
	r := newRemote(t, a1, a2)

	// Kill whichever worker owns the first obligation: the ring is seeded by
	// the (random) listen addresses, so either may.
	owned := remotableObligations(t, false)[0]
	if r.pool.pick(owned.Key())[0].addr == a2 {
		a1, a2, s1 = a2, a1, s2
	}
	s1.Close()
	// BreakerThreshold (3) consecutive failures trip the breaker.
	for i := 0; i < DefaultBreakerThreshold; i++ {
		r.Solve(context.Background(), owned, solver.Budget{})
	}
	if got := r.pool.pick(owned.Key())[0].addr; got != a2 {
		t.Fatalf("after breaker trip, primary = %s, want survivor %s", got, a2)
	}
}

// TestMalformedResponseIsTerminalUnknown: a worker that answers 200 with
// garbage yields a typed WireError surfaced as StatusUnknown — no retry on
// the healthy worker (it would launder a lying worker's shard), no crash.
func TestMalformedResponseIsTerminalUnknown(t *testing.T) {
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"result": {"ok": tr`)) // truncated mid-token
	}))
	defer garbage.Close()
	gu, _ := url.Parse(garbage.URL)
	a2, _ := startWorker(t, ServerOptions{})
	r := newRemote(t, gu.Host, a2)

	// Enough distinct keys that the garbage worker owns one wherever the
	// (random) listen addresses put it on the ring.
	obs := remotableObligations(t, false)
	wan := netgen.WAN(netgen.WANParams{Regions: 2, RoutersPerRegion: 2, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 2}, netgen.WANBugs{})
	for _, c := range netgen.PeeringProblem(wan, netgen.EdgeRouter(0), netgen.PeeringProperties(2)[0]).Checks(core.Options{}) {
		obs = append(obs, c.Obligation())
	}
	var owned *core.Obligation
	for _, ob := range obs {
		if r.pool.pick(ob.Key())[0].addr == gu.Host {
			owned = ob
			break
		}
	}
	if owned == nil {
		t.Skip("no obligation sharded to the garbage worker")
	}
	out := r.Solve(context.Background(), owned, solver.Budget{})
	if out.Status != core.StatusUnknown || out.OK {
		t.Fatalf("malformed response produced %v (ok=%v), want unknown", out.Status, out.OK)
	}
	if out.Counterexample == nil || !strings.Contains(out.Counterexample.Note, "malformed") {
		t.Fatalf("unknown verdict does not explain itself: %+v", out.Counterexample)
	}
	for _, w := range r.Stats().Workers {
		if w.Addr == a2 && w.Solved != 0 {
			t.Fatalf("terminal wire error still retried on %s", a2)
		}
	}
}

// TestInconsistentVerdictRejected: a syntactically valid response whose
// ok/status fields disagree is rejected like garbage — Unknown, not a
// trusted verdict.
func TestInconsistentVerdictRejected(t *testing.T) {
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"result": {"ok": true, "status": "fail", "backend": "native"}}`))
	}))
	defer liar.Close()
	lu, _ := url.Parse(liar.URL)
	r := newRemote(t, lu.Host)

	ob := remotableObligations(t, false)[0]
	out := r.Solve(context.Background(), ob, solver.Budget{})
	if out.Status != core.StatusUnknown || out.OK {
		t.Fatalf("inconsistent verdict accepted: %v (ok=%v)", out.Status, out.OK)
	}
}

// TestSaturatedWorkerRetries: a worker answering 503 (admission full) is a
// retryable refusal — the solve completes on the other shard.
func TestSaturatedWorkerRetries(t *testing.T) {
	full := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		http.Error(w, "worker saturated", http.StatusServiceUnavailable)
	}))
	defer full.Close()
	fu, _ := url.Parse(full.URL)
	a2, _ := startWorker(t, ServerOptions{})
	r := newRemote(t, fu.Host, a2)

	var owned *core.Obligation
	for _, ob := range remotableObligations(t, false) {
		if r.pool.pick(ob.Key())[0].addr == fu.Host {
			owned = ob
			break
		}
	}
	if owned == nil {
		t.Skip("no obligation sharded to the saturated worker")
	}
	out := r.Solve(context.Background(), owned, solver.Budget{})
	if out.Status == core.StatusUnknown {
		t.Fatalf("saturation did not fail over: %v", out.Status)
	}
	if !strings.Contains(out.Backend, a2) {
		t.Fatalf("provenance %q does not name the survivor", out.Backend)
	}
}

// TestEngineNeverCachesRemoteUnknown: driven through the engine, a fleet of
// liars produces Unknown verdicts that are not cached — resubmitting the
// same workload re-solves every check instead of replaying the give-up.
func TestEngineNeverCachesRemoteUnknown(t *testing.T) {
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Write([]byte("not even json"))
	}))
	defer garbage.Close()
	gu, _ := url.Parse(garbage.URL)
	r := newRemote(t, gu.Host)

	eng := engine.New(engine.Options{Workers: 2, Backend: r})
	defer eng.Close()
	n := netgen.Fig1(netgen.Fig1Options{})
	var solvedAfter [2]uint64
	for i := 0; i < 2; i++ {
		j, err := eng.Submit(context.Background(), engine.Workload{Safety: netgen.Fig1NoTransitProblem(n)})
		if err != nil {
			t.Fatal(err)
		}
		rep := j.Wait()
		if rep.OK() {
			t.Fatal("report OK despite a garbage fleet")
		}
		unknowns := 0
		for _, res := range rep.Results {
			if res.Status == core.StatusUnknown {
				unknowns++
				if res.OK {
					t.Fatalf("unknown result claims OK: %+v", res)
				}
			}
		}
		if unknowns == 0 {
			t.Fatal("garbage fleet produced no unknown verdicts")
		}
		solvedAfter[i] = eng.Stats().ChecksSolved
	}
	// The decided verdicts (concrete checks solved by the local fallback)
	// may be cached, but every Unknown must be re-solved on resubmission:
	// the second run performs real solves instead of replaying give-ups.
	if solvedAfter[1] == solvedAfter[0] {
		t.Fatal("second submission solved nothing; unknown remote results were cached")
	}
}

// TestWorkerStatusAndHealth: the worker's own observability plane reports
// liveness and counters that move with traffic.
func TestWorkerStatusAndHealth(t *testing.T) {
	addr, srv := startWorker(t, ServerOptions{Name: "w-status"})
	r := newRemote(t, addr)
	ob := remotableObligations(t, false)[0]
	if out := r.Solve(context.Background(), ob, solver.Budget{}); out.Status == core.StatusUnknown {
		t.Fatalf("solve failed: %v", out.Status)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	var st WorkerStatus
	resp, err = http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Name != "w-status" || st.Backend != "native" {
		t.Fatalf("status identity: %+v", st)
	}
	if st.Solves["ok"]+st.Solves["fail"]+st.Solves["unknown"] == 0 {
		t.Fatalf("status counters did not move: %+v", st.Solves)
	}
}
