package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/plan"
	"lightyear/internal/solver"
)

// planCost compiles a request and returns its admission cost, so the tests
// derive limits from the real check counts instead of hard-coding them.
func planCost(t *testing.T, body string) int {
	t.Helper()
	var req plan.Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	c, err := plan.Compile(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c.Cost()
}

const bigPlan = `{
	"network": {"generator": {"kind": "wan", "regions": 2, "routers_per_region": 1,
	                          "edge_routers": 2, "peers_per_edge": 2}},
	"properties": [{"name": "wan-peering"}],
	"options": {"wan_regions": 2}
}`

// TestAdmission429AndRetryAfter is the tentpole's HTTP contract: a plan
// whose compiled cost exceeds the engine budget is rejected synchronously
// with 429 + Retry-After and nothing enqueued; a smaller plan from the same
// tenant is admitted, runs, and the per-tenant counters in /v1/status record
// both decisions.
func TestAdmission429AndRetryAfter(t *testing.T) {
	bigCost, smallCost := planCost(t, bigPlan), planCost(t, fig1Plan)
	if smallCost >= bigCost {
		t.Fatalf("test plans must differ in cost: small %d, big %d", smallCost, bigCost)
	}
	eng := engine.New(engine.Options{Workers: 4,
		Admission: engine.Admission{MaxInFlightChecks: smallCost}})
	t.Cleanup(eng.Close)
	srv := newServer(eng)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	// Over budget: 429, Retry-After, typed JSON body, no job created.
	req, _ := http.NewRequest("POST", ts.URL+"/v2/verify", bytes.NewBufferString(bigPlan))
	req.Header.Set("X-Tenant", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget plan: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without a Retry-After header")
	}
	var rej struct {
		Tenant       string `json:"tenant"`
		Cost         int    `json:"cost"`
		Limit        int    `json:"limit"`
		RetryAfterMS int64  `json:"retry_after_ms"`
		Permanent    bool   `json:"permanent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if rej.Tenant != "acme" || rej.Cost != bigCost || rej.Limit != smallCost || rej.RetryAfterMS <= 0 {
		t.Fatalf("429 body: %+v (want tenant acme, cost %d, limit %d)", rej, bigCost, smallCost)
	}
	if !rej.Permanent {
		t.Fatalf("a plan bigger than the whole budget must be marked permanent: %+v", rej)
	}
	srv.mu.Lock()
	jobs := len(srv.jobs)
	srv.mu.Unlock()
	if jobs != 0 {
		t.Fatalf("rejected plan created %d jobs", jobs)
	}

	// Under budget, same tenant via query parameter: admitted and verified.
	resp2, err := http.Post(ts.URL+"/v2/verify?tenant=acme", "application/json",
		bytes.NewBufferString(fig1Plan))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("under-budget plan: status %d, want 202", resp2.StatusCode)
	}
	var accept struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&accept); err != nil {
		t.Fatal(err)
	}
	j := waitDone(t, ts, accept.ID)
	if j.OK == nil || !*j.OK {
		t.Fatalf("admitted job did not verify: %+v", j)
	}
	if j.Tenant != "acme" || j.Cost != smallCost {
		t.Fatalf("job admission identity: tenant %q cost %d, want acme/%d", j.Tenant, j.Cost, smallCost)
	}

	// /v1/status exposes the per-tenant counters.
	ten := getStatus(t, ts).Engine.Tenants["acme"]
	if ten.Admitted != 1 || ten.Rejected != 1 {
		t.Fatalf("tenant counters: %+v (want 1 admitted, 1 rejected)", ten)
	}
	if ten.InFlightCost != 0 {
		t.Fatalf("completed plan left %d in-flight cost", ten.InFlightCost)
	}
}

// TestEngineFlagsReachTheEngine: lyserve's engine flags build the engine
// options the service runs with — -max-inflight becomes the budget a plan
// is refused against, over HTTP — and a bad value is an error, not a
// default.
func TestEngineFlagsReachTheEngine(t *testing.T) {
	parse := func(args ...string) (engine.Options, error) {
		fs := flag.NewFlagSet("lyserve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		build := engineFlags(fs)
		if err := fs.Parse(args); err != nil {
			return engine.Options{}, err
		}
		return build()
	}
	opts, err := parse("-workers", "2", "-max-inflight", "100", "-tenant-quota", "60",
		"-tenant-weights", "acme=3", "-solver", "portfolio", "-slow-conflicts", "7")
	if err != nil {
		t.Fatal(err)
	}
	a := opts.Admission
	if opts.Workers != 2 || a.MaxInFlightChecks != 100 || a.PerTenantQuota != 60 || a.Weights["acme"] != 3 ||
		opts.Backend == nil || opts.Backend.Name() != "portfolio" || opts.SlowCheck.Conflicts != 7 {
		t.Fatalf("engine options from flags: %+v", opts)
	}
	for _, bad := range [][]string{{"-max-inflight", "many"}, {"-tenant-weights", "acme=0"}, {"-solver", "bogus"}} {
		if _, err := parse(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}

	// The budget reaches the engine: the wan-peering plan is refused
	// against it for good, the fig1 plan fits.
	if opts, err = parse("-max-inflight", "100"); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(opts)
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newServer(eng).routes())
	t.Cleanup(ts.Close)
	resp, body := postJSON(t, ts.URL+"/v2/verify", bigPlan)
	if resp.StatusCode != http.StatusTooManyRequests || body["limit"] != 100.0 || body["permanent"] != true {
		t.Fatalf("plan over -max-inflight 100: %d %v", resp.StatusCode, body)
	}
	var adm *engine.ErrAdmission
	if _, err := eng.Reserve("", 101); !errors.As(err, &adm) || adm.Limit != 100 {
		t.Fatalf("engine budget: %v", err)
	}
	if j := waitDone(t, ts, postVerify(t, ts, fig1Plan)); j.OK == nil || !*j.OK {
		t.Fatalf("fig1 plan under -max-inflight 100: %+v", j)
	}
}

// gatedBackend holds every solve until Open, then solves natively — it
// keeps admitted work in flight (and queued) for as long as a test needs.
type gatedBackend struct {
	open chan struct{}
	once sync.Once
}

func newGatedBackend() *gatedBackend { return &gatedBackend{open: make(chan struct{})} }

func (g *gatedBackend) Open()        { g.once.Do(func() { close(g.open) }) }
func (g *gatedBackend) Name() string { return "native" }
func (g *gatedBackend) Solve(ctx context.Context, ob *core.Obligation, b solver.Budget) solver.Outcome {
	<-g.open
	return solver.Native(0).Solve(ctx, ob, b)
}

// newGatedServer serves an engine whose solves wait on the returned gate.
func newGatedServer(t *testing.T, a engine.Admission) (*httptest.Server, *gatedBackend) {
	t.Helper()
	g := newGatedBackend()
	eng := engine.New(engine.Options{Workers: 1, Backend: g, Admission: a})
	t.Cleanup(eng.Close)
	t.Cleanup(g.Open) // runs before eng.Close: Close drains
	ts := httptest.NewServer(newServer(eng).routes())
	t.Cleanup(ts.Close)
	return ts, g
}

// TestSessionCreationAdmitsBaseline: session creation is the baseline's
// admission. Two back-to-back creations that each cost the whole engine
// budget get one 202 and one 429, and the admitted session's baseline runs
// under the grant its 202 stood for — it never fails admission later.
func TestSessionCreationAdmitsBaseline(t *testing.T) {
	cost := planCost(t, fig1Plan)
	ts, g := newGatedServer(t, engine.Admission{MaxInFlightChecks: cost})

	create := func() *http.Response {
		resp, err := http.Post(ts.URL+"/v2/sessions?tenant=acme", "application/json", bytes.NewBufferString(fig1Plan))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	first, second := create(), create()
	if first.StatusCode != http.StatusAccepted || second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("back-to-back session creations: %d then %d, want 202 then 429", first.StatusCode, second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Fatal("session 429 without a Retry-After header")
	}
	var rej struct {
		Cost      int  `json:"cost"`
		Limit     int  `json:"limit"`
		Permanent bool `json:"permanent"`
	}
	if err := json.NewDecoder(second.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if rej.Cost != cost || rej.Limit != cost || rej.Permanent {
		t.Fatalf("429 body %+v: want cost = limit = %d, transient", rej, cost)
	}
	var accept struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(first.Body).Decode(&accept); err != nil {
		t.Fatal(err)
	}
	// The grant is held while the baseline waits on the gate.
	if st := getStatus(t, ts).Engine; st.InFlightCost != cost {
		t.Fatalf("in-flight cost while the baseline is held: %d, want %d", st.InFlightCost, cost)
	}

	g.Open()
	run := waitRunDone(t, ts, accept.ID, 0).Runs[0]
	if run.Status != "done" || run.Error != "" {
		t.Fatalf("admitted session's baseline: status %q, error %q", run.Status, run.Error)
	}
	ten := getStatus(t, ts).Engine.Tenants["acme"]
	if ten.Admitted != 1 || ten.Rejected != 1 || ten.InFlightCost != 0 {
		t.Fatalf("tenant counters: %+v (want 1 admitted, 1 rejected, nothing in flight)", ten)
	}

	// The same holds for a concurrent burst: the decision is made under
	// the engine's lock when each request arrives, so no two creations see
	// the budget free.
	ts, g = newGatedServer(t, engine.Admission{MaxInFlightChecks: cost})
	const burst = 6
	codes := make(chan int, burst)
	ids := make(chan string, burst)
	for i := 0; i < burst; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v2/sessions?tenant=acme", "application/json", bytes.NewBufferString(fig1Plan))
			if err != nil {
				codes <- 0
				return
			}
			defer resp.Body.Close()
			var accept struct {
				ID string `json:"id"`
			}
			json.NewDecoder(resp.Body).Decode(&accept)
			if accept.ID != "" {
				ids <- accept.ID
			}
			codes <- resp.StatusCode
		}()
	}
	admitted := 0
	for i := 0; i < burst; i++ {
		switch code := <-codes; code {
		case http.StatusAccepted:
			admitted++
		case http.StatusTooManyRequests:
		default:
			t.Fatalf("burst session creation: status %d", code)
		}
	}
	if admitted != 1 {
		t.Fatalf("%d of %d concurrent creations admitted inside a budget for one", admitted, burst)
	}
	g.Open()
	close(ids)
	for id := range ids {
		if run := waitRunDone(t, ts, id, 0).Runs[0]; run.Status != "done" || run.Error != "" {
			t.Fatalf("burst session %s baseline: status %q, error %q", id, run.Status, run.Error)
		}
	}
}

// TestSessionDeleteReleasesBaselineGrant: deleting a session whose
// baseline has not finished hands its grant back — the budget is whole
// again once the session is gone.
func TestSessionDeleteReleasesBaselineGrant(t *testing.T) {
	cost := planCost(t, fig1Plan)
	ts, g := newGatedServer(t, engine.Admission{MaxInFlightChecks: cost})
	resp, accept := postJSON(t, ts.URL+"/v2/sessions", fig1Plan)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("session create: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v2/sessions/"+accept["id"].(string), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	g.Open()
	deadline := time.Now().Add(time.Minute)
	for getStatus(t, ts).Engine.InFlightCost != 0 {
		if time.Now().After(deadline) {
			t.Fatal("deleted session's baseline grant never released")
		}
		time.Sleep(20 * time.Millisecond)
	}
	createSession(t, ts, fig1Plan) // admitted at the full budget, baseline done
}

// TestReadyzWhilePlanQueued: queued work is admitted work, so a backlog
// never makes the service unready — /readyz stays 200 while a plan's
// problems wait behind a held worker.
func TestReadyzWhilePlanQueued(t *testing.T) {
	ts, g := newGatedServer(t, engine.Admission{})
	id := postVerify(t, ts, bigPlan)
	deadline := time.Now().Add(time.Minute)
	for getStatus(t, ts).Engine.QueuedWorkloads < 2 {
		if time.Now().After(deadline) {
			t.Fatal("plan's problems never queued behind the held worker")
		}
		time.Sleep(10 * time.Millisecond)
	}
	code, body := getHealthJSON(t, ts.URL+"/readyz")
	if code != http.StatusOK || body["ready"] != true {
		t.Fatalf("GET /readyz with a queued plan = %d %v, want 200 ready", code, body)
	}
	g.Open()
	if j := waitDone(t, ts, id); j.OK == nil || !*j.OK {
		t.Fatalf("queued plan did not verify: %+v", j)
	}
}

// TestSessionTenantInheritance: a session created under a tenant runs its
// baseline and every update under that tenant.
func TestSessionTenantInheritance(t *testing.T) {
	ts := newTestServer(t)
	req, _ := http.NewRequest("POST", ts.URL+"/v2/sessions", bytes.NewBufferString(fig1Plan))
	req.Header.Set("X-Tenant", "netops")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("session create: status %d, want 202", resp.StatusCode)
	}
	var accept struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accept); err != nil {
		t.Fatal(err)
	}
	waitRunDone(t, ts, accept.ID, 0)

	// A caller presenting a different identity (here: none, i.e. the
	// default tenant) may not mutate the session — its runs are charged to
	// the session's tenant.
	update := `{"network": {"generator": {"kind": "fig1"}}}`
	fresp, err := http.Post(ts.URL+"/v2/sessions/"+accept.ID+"/update", "application/json",
		bytes.NewBufferString(update))
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusForbidden {
		t.Fatalf("foreign-tenant update: status %d, want 403", fresp.StatusCode)
	}
	dreq, _ := http.NewRequest("DELETE", ts.URL+"/v2/sessions/"+accept.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusForbidden {
		t.Fatalf("foreign-tenant delete: status %d, want 403", dresp.StatusCode)
	}

	// The rightful tenant's update is accepted and runs under its quota —
	// here asserted via the body's tenant field, the same channel a
	// header-less creator would have used.
	ownerBody := `{"network": {"generator": {"kind": "fig1"}}, "tenant": "netops"}`
	uresp, err := http.Post(ts.URL+"/v2/sessions/"+accept.ID+"/update", "application/json",
		bytes.NewBufferString(ownerBody))
	if err != nil {
		t.Fatal(err)
	}
	uresp.Body.Close()
	if uresp.StatusCode != http.StatusAccepted {
		t.Fatalf("session update: status %d, want 202", uresp.StatusCode)
	}
	waitRunDone(t, ts, accept.ID, 1)

	var sess struct {
		Tenant string `json:"tenant"`
	}
	gresp, err := http.Get(ts.URL + "/v2/sessions/" + accept.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if err := json.NewDecoder(gresp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	if sess.Tenant != "netops" {
		t.Fatalf("session tenant = %q, want netops", sess.Tenant)
	}

	// Baseline + update were both admitted as netops.
	if got := getStatus(t, ts).Engine.Tenants["netops"].Admitted; got != 2 {
		t.Fatalf("netops admissions = %d, want 2 (baseline + update)", got)
	}
}

// TestSessionGC: idle sessions expire after the session TTL; a session
// kept active by a recent update survives the same sweep, and an expired
// session 404s exactly like a deleted one.
func TestSessionGC(t *testing.T) {
	ts, srv := newTestServerWithState(t)
	srv.sessionTTL = 500 * time.Millisecond

	create := func() string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v2/sessions", "application/json", bytes.NewBufferString(fig1Plan))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("session create: status %d, want 202", resp.StatusCode)
		}
		var accept struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&accept); err != nil {
			t.Fatal(err)
		}
		waitRunDone(t, ts, accept.ID, 0)
		return accept.ID
	}
	idle, active := create(), create()

	// Both are fresh: nothing expires.
	if n := srv.gc(time.Now()); n != 0 {
		t.Fatalf("gc removed %d fresh sessions", n)
	}

	// Let both cross the idle threshold, then touch only one with an
	// update — its lastActive refreshes, the other stays idle.
	time.Sleep(600 * time.Millisecond)
	update := `{"network": {"generator": {"kind": "fig1"}}}`
	uresp, err := http.Post(ts.URL+"/v2/sessions/"+active+"/update", "application/json",
		bytes.NewBufferString(update))
	if err != nil {
		t.Fatal(err)
	}
	uresp.Body.Close()
	waitRunDone(t, ts, active, 1)

	if n := srv.gc(time.Now()); n != 1 {
		t.Fatalf("gc expired %d sessions, want 1 (the idle one)", n)
	}
	for id, want := range map[string]int{idle: http.StatusNotFound, active: http.StatusOK} {
		resp, err := http.Get(ts.URL + "/v2/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET session %s = %d, want %d", id, resp.StatusCode, want)
		}
	}

	// An update to the expired session is refused like a deleted one.
	resp, err := http.Post(ts.URL+"/v2/sessions/"+idle+"/update", "application/json",
		bytes.NewBufferString(update))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("update of expired session = %d, want 404", resp.StatusCode)
	}
}
