package fabric

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/solver"
)

// startWorker runs an in-process worker server and returns its host:port.
func startWorker(t *testing.T) (string, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(NewServer(ServerOptions{Backend: solver.Native(0)}))
	t.Cleanup(srv.Close)
	return hostOf(t, srv), srv
}

func hostOf(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	u, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// newRemote builds a Remote over one worker.
func newRemote(t *testing.T, addr string) *Remote {
	t.Helper()
	r, err := New(Config{Workers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// fig1Obligations are the checks of the Fig1 no-transit problem, with both
// OK and Fail verdicts when built on the buggy network.
func fig1Obligations(buggy bool) []*core.Obligation {
	n := netgen.Fig1(netgen.Fig1Options{OmitTransitTag: buggy})
	var out []*core.Obligation
	for _, c := range netgen.Fig1NoTransitProblem(n).Checks(core.Options{}) {
		out = append(out, c.Obligation())
	}
	return out
}

// TestNewWantsOneWorker: a Remote talks to exactly one worker.
func TestNewWantsOneWorker(t *testing.T) {
	for _, workers := range [][]string{nil, {"a:1", "b:1"}} {
		if _, err := New(Config{Workers: workers}); err == nil {
			t.Errorf("New accepted %d workers", len(workers))
		}
	}
}

// TestRemoteSolveRoundTrip: a worker decides real obligations with the same
// verdicts as a local solve, and the result names the worker.
func TestRemoteSolveRoundTrip(t *testing.T) {
	addr, _ := startWorker(t)
	r := newRemote(t, addr)
	native := solver.Native(0)
	for _, buggy := range []bool{false, true} {
		fails := 0
		for _, ob := range fig1Obligations(buggy) {
			want := native.Solve(context.Background(), ob, solver.Budget{})
			got := r.Solve(context.Background(), ob, solver.Budget{})
			if got.Status != want.Status {
				t.Fatalf("%q: remote=%v local=%v", ob.Desc, got.Status, want.Status)
			}
			if got.Backend != "remote("+addr+")/native" {
				t.Fatalf("%q: provenance %q, want remote(%s)/native", ob.Desc, got.Backend, addr)
			}
			if got.Kind != ob.Kind || got.Loc != ob.Loc || got.Desc.String() != ob.Desc.String() {
				t.Fatalf("%q: identity not stamped from the obligation: %+v", ob.Desc, got.CheckResult)
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
}

// TestBudgetForwarded: the coordinator's conflict budget rides the wire — a
// 1-conflict budget leaves the pigeonhole check Unknown on the worker, and
// the Unknown comes back as a decoded verdict, not an error.
func TestBudgetForwarded(t *testing.T) {
	addr, _ := startWorker(t)
	r := newRemote(t, addr)
	p := netgen.StressProblem(netgen.Fig1(netgen.Fig1Options{}), 4)
	var hard *core.Obligation
	for _, c := range p.Checks(core.Options{}) {
		ob := c.Obligation()
		// The pigeonhole implication is the one check a 1-conflict budget
		// cannot decide; identify it by that behavior.
		if out := r.Solve(context.Background(), ob, solver.Budget{Conflicts: 1}); out.Status == core.StatusUnknown {
			if !strings.HasPrefix(out.Backend, "remote("+addr+")/") {
				t.Fatalf("budget-limited Unknown did not come from the worker: %q", out.Backend)
			}
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

// TestWorkerFailureIsUnknown: a worker that refuses (503) or is gone yields
// an Unknown that names the worker and says why — never a verdict.
func TestWorkerFailureIsUnknown(t *testing.T) {
	full := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		http.Error(w, "worker saturated", http.StatusServiceUnavailable)
	}))
	defer full.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := hostOf(t, dead)
	dead.Close()

	ob := fig1Obligations(false)[0]
	for _, c := range []struct{ addr, note string }{
		{hostOf(t, full), "503"},
		{deadAddr, deadAddr},
	} {
		out := newRemote(t, c.addr).Solve(context.Background(), ob, solver.Budget{})
		if out.Status != core.StatusUnknown || out.OK {
			t.Fatalf("%s: failed worker produced %v (ok=%v), want unknown", c.addr, out.Status, out.OK)
		}
		if out.Backend != "remote("+c.addr+")" {
			t.Fatalf("%s: provenance %q", c.addr, out.Backend)
		}
		if out.Counterexample == nil || !strings.Contains(out.Counterexample.Note, c.note) {
			t.Fatalf("%s: unknown verdict does not explain itself: %+v", c.addr, out.Counterexample)
		}
	}
}

// TestMalformedResponseIsTerminalUnknown: a worker that answers 200 with
// garbage yields a typed WireError surfaced as StatusUnknown, not a crash.
func TestMalformedResponseIsTerminalUnknown(t *testing.T) {
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"result": {"ok": tr`)) // truncated mid-token
	}))
	defer garbage.Close()
	r := newRemote(t, hostOf(t, garbage))
	out := r.Solve(context.Background(), fig1Obligations(false)[0], solver.Budget{})
	if out.Status != core.StatusUnknown || out.OK {
		t.Fatalf("malformed response produced %v (ok=%v), want unknown", out.Status, out.OK)
	}
	if out.Counterexample == nil || !strings.Contains(out.Counterexample.Note, "malformed") {
		t.Fatalf("unknown verdict does not explain itself: %+v", out.Counterexample)
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
	r := newRemote(t, hostOf(t, liar))
	out := r.Solve(context.Background(), fig1Obligations(false)[0], solver.Budget{})
	if out.Status != core.StatusUnknown || out.OK {
		t.Fatalf("inconsistent verdict accepted: %v (ok=%v)", out.Status, out.OK)
	}
}

// TestServerRefusesBadRequests: the worker answers only POST /v1/solve, and
// a body it cannot decode — malformed, oversized or naming no obligation —
// is a 400 before any solve.
func TestServerRefusesBadRequests(t *testing.T) {
	_, srv := startWorker(t)
	for _, c := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/v1/solve", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/healthz", "", http.StatusNotFound},
		{http.MethodPost, "/v1/solve", `{"obligation": `, http.StatusBadRequest},
		{http.MethodPost, "/v1/solve", `{}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/solve", `{"obligation": {"kind": "bogus"}}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/solve", `{"budget": 1, "pad": "` + strings.Repeat("x", maxRequestBytes) + `"}`, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s (%d bytes): status %d, want %d", c.method, c.path, len(c.body), resp.StatusCode, c.want)
		}
	}
}

// TestEngineNeverCachesRemoteUnknown: driven through the engine, a lying
// worker produces Unknown verdicts that are not cached — resubmitting the
// same workload re-solves every check instead of replaying the give-up.
func TestEngineNeverCachesRemoteUnknown(t *testing.T) {
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Write([]byte("not even json"))
	}))
	defer garbage.Close()
	r := newRemote(t, hostOf(t, garbage))

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
			t.Fatal("report OK despite a garbage worker")
		}
		for _, res := range rep.Results {
			if res.Status != core.StatusUnknown || res.OK {
				t.Fatalf("garbage worker produced a verdict: %+v", res)
			}
		}
		solvedAfter[i] = eng.Stats().ChecksSolved
	}
	if st := eng.Stats(); st.CacheHits != 0 || st.CacheLen != 0 {
		t.Fatalf("unknown remote results were cached: %d cache hits, %d entries", st.CacheHits, st.CacheLen)
	}
	if solvedAfter[1] == solvedAfter[0] {
		t.Fatal("second submission solved nothing; unknown remote results were cached")
	}
}
