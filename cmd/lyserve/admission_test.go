package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lightyear/internal/engine"
	"lightyear/internal/plan"
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
