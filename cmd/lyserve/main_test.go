package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lightyear/internal/engine"
	"lightyear/internal/netgen"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 4})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newServer(eng).routes())
	t.Cleanup(ts.Close)
	return ts
}

// fig1Plan verifies the paper's Figure-1 network for no-transit: about twenty
// checks, a few milliseconds.
const fig1Plan = `{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit"}]}`

func postVerify(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v2/verify", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /v2/verify = %d, want 202 (error: %s)", resp.StatusCode, e["error"])
	}
	var out struct {
		ID        string `json:"id"`
		StatusURL string `json:"status_url"`
		EventsURL string `json:"events_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" || out.StatusURL != "/v2/jobs/"+out.ID || out.EventsURL != out.StatusURL+"/events" {
		t.Fatalf("bad accept payload: %+v", out)
	}
	return out.ID
}

func getJob(t *testing.T, ts *httptest.Server, id string) jobV2JSON {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v2/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/jobs/%s = %d, want 200", id, resp.StatusCode)
	}
	var j jobV2JSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func waitDone(t *testing.T, ts *httptest.Server, id string) jobV2JSON {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		j := getJob(t, ts, id)
		if j.Status == "done" {
			return j
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not complete in time", id)
	return jobV2JSON{}
}

// jobProblems flattens a job snapshot's per-property problems.
func jobProblems(j jobV2JSON) []problemStatusJS {
	var out []problemStatusJS
	for _, p := range j.Properties {
		out = append(out, p.Problems...)
	}
	return out
}

// getStatus decodes the GET /v1/status rollup.
func getStatus(t *testing.T, ts *httptest.Server) statusJSONV1 {
	t.Helper()
	var st statusJSONV1
	getJSON(t, ts, "/v1/status", &st)
	return st
}

// TestVerifyRoundTrip drives the full async API: submit a WAN peering
// sweep, poll it to completion, and assert the reports and the engine's
// cross-problem dedup statistics.
func TestVerifyRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	id := postVerify(t, ts, `{
		"network": {"generator": {"kind": "wan", "regions": 3, "routers_per_region": 2,
		                          "edge_routers": 2, "dcs_per_region": 1, "peers_per_edge": 2}},
		"properties": [{"name": "wan-peering"}]
	}`)
	j := waitDone(t, ts, id)

	if j.Label != "wan-peering" || j.OK == nil || !*j.OK {
		t.Fatalf("job should verify: %+v", j)
	}
	if len(jobProblems(j)) == 0 {
		t.Fatal("no problems in job")
	}
	for _, p := range jobProblems(j) {
		if p.Status != "done" || p.Report == nil || !p.Report.OK {
			t.Fatalf("problem %s: status=%s report=%v", p.Name, p.Status, p.Report)
		}
		if p.Completed != p.Total || p.Total != p.Report.NumChecks {
			t.Errorf("problem %s: completed %d/%d with %d checks", p.Name, p.Completed, p.Total, p.Report.NumChecks)
		}
	}

	// The sweep re-issues identical filter checks for every router ×
	// property pair: the engine must have deduped across problems.
	stats := getStatus(t, ts)
	if stats.Engine.CacheHits+stats.Engine.DedupHits == 0 {
		t.Errorf("expected nonzero cross-problem cache/dedup hits, stats: %+v", stats.Engine)
	}
	if stats.Engine.ChecksSolved >= stats.Engine.ChecksSubmitted {
		t.Errorf("engine solved %d of %d submitted checks; dedup had no effect",
			stats.Engine.ChecksSolved, stats.Engine.ChecksSubmitted)
	}
	if stats.Jobs == 0 {
		t.Error("stats should count the submitted job")
	}
}

// TestConcurrentVerifyJobs submits several jobs at once and requires all to
// complete with correct verdicts — the multi-tenant traffic shape lyserve
// exists for.
func TestConcurrentVerifyJobs(t *testing.T) {
	ts := newTestServer(t)
	bodies := []string{
		fig1Plan,
		`{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-liveness"}]}`,
		fig1Plan,
		`{"network": {"generator": {"kind": "fullmesh", "size": 6}}, "properties": [{"name": "fullmesh"}]}`,
	}
	ids := make([]string, len(bodies))
	var wg sync.WaitGroup
	for i, b := range bodies {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			ids[i] = postVerify(t, ts, b)
		}(i, b)
	}
	wg.Wait()

	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job id %s", id)
		}
		seen[id] = true
		j := waitDone(t, ts, id)
		if j.OK == nil || !*j.OK {
			t.Errorf("job %s (%s) failed: %+v", id, j.Label, j)
		}
	}
}

// TestVerifyFromConfigDSL submits a network as DSL source, exactly as
// cmd/lightyear consumes it.
func TestVerifyFromConfigDSL(t *testing.T) {
	ts := newTestServer(t)
	body, err := json.Marshal(map[string]any{
		"network":    map[string]string{"config": netgen.Fig1DSL(netgen.Fig1Options{})},
		"properties": []map[string]string{{"name": "fig1-no-transit"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	id := postVerify(t, ts, string(body))
	j := waitDone(t, ts, id)
	if j.OK == nil || !*j.OK {
		t.Fatalf("DSL round-trip should verify: %+v", j)
	}
}

// TestNonOptionalLivenessFailureFailsJob: a required liveness problem whose
// witness path is absent from the network must fail the job, not report
// verified-OK.
func TestNonOptionalLivenessFailureFailsJob(t *testing.T) {
	ts := newTestServer(t)
	// fig1-liveness on a full mesh: the Customer -> R3 path does not exist.
	id := postVerify(t, ts, `{"network": {"generator": {"kind": "fullmesh", "size": 4}},
		"properties": [{"name": "fig1-liveness"}]}`)
	j := waitDone(t, ts, id)
	if j.OK == nil || *j.OK {
		t.Fatalf("job must report ok=false when a required problem cannot run: %+v", j)
	}
	if ps := jobProblems(j); len(ps) != 1 || ps[0].Status != "failed" || ps[0].SkipReason == "" {
		t.Fatalf("problem should be marked failed with a reason: %+v", ps)
	}
}

// newTestServerWithState also exposes the server struct, for tests that
// drive internals (GC) directly.
func newTestServerWithState(t *testing.T) (*httptest.Server, *server) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 4})
	t.Cleanup(eng.Close)
	srv := newServer(eng)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts, srv
}

// TestJobGC: completed jobs must be collectable after the TTL; running and
// fresh jobs must survive.
func TestJobGC(t *testing.T) {
	ts, srv := newTestServerWithState(t)
	id := postVerify(t, ts, fig1Plan)
	waitDone(t, ts, id)

	// Before the TTL elapses nothing is collected.
	if n := srv.gc(time.Now()); n != 0 {
		t.Fatalf("gc before TTL removed %d jobs", n)
	}
	// After the TTL the completed job goes away and queries 404.
	if n := srv.gc(time.Now().Add(srv.ttl + time.Minute)); n != 1 {
		t.Fatalf("gc after TTL removed %d jobs, want 1", n)
	}
	resp, err := http.Get(ts.URL + "/v2/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("collected job should 404, got %d", resp.StatusCode)
	}
}

type sessionStatus struct {
	ID          string `json:"id"`
	Suite       string `json:"suite"`
	Fingerprint string `json:"fingerprint"`
	Results     int    `json:"retained_results"`
	Runs        []struct {
		Seq      int    `json:"seq"`
		Baseline bool   `json:"baseline"`
		Migrate  bool   `json:"migrate"`
		Status   string `json:"status"`
		Error    string `json:"error"`
		Result   *struct {
			OK             bool     `json:"ok"`
			TotalChecks    int      `json:"total_checks"`
			DirtyChecks    int      `json:"dirty_checks"`
			ReusedResults  int      `json:"reused_results"`
			Solved         int      `json:"solved"`
			Unknown        int      `json:"unknown"`
			ChangedRouters []string `json:"changed_routers"`
		} `json:"result"`
	} `json:"runs"`
}

func getSession(t *testing.T, ts *httptest.Server, id string) sessionStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v2/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/sessions/%s = %d, want 200", id, resp.StatusCode)
	}
	var s sessionStatus
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

func waitRunDone(t *testing.T, ts *httptest.Server, id string, seq int) sessionStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		s := getSession(t, ts, id)
		if seq < len(s.Runs) && s.Runs[seq].Status != "running" {
			return s
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("session %s run %d did not complete in time", id, seq)
	return sessionStatus{}
}

// TestSessionIncrementalFlow drives the delta session API: pin a baseline,
// submit a no-op update and a growth update, and assert the incremental
// accounting.
func TestSessionIncrementalFlow(t *testing.T) {
	ts := newTestServer(t)
	gen := func(edgeRouters int) string {
		return fmt.Sprintf(`{"kind": "wan", "regions": 2, "routers_per_region": 1,
			"edge_routers": %d, "dcs_per_region": 1, "peers_per_edge": 2}`, edgeRouters)
	}

	resp, err := http.Post(ts.URL+"/v2/sessions", "application/json",
		bytes.NewBufferString(`{"network": {"generator": `+gen(1)+`}, "properties": [{"name": "wan-peering"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID        string `json:"id"`
		StatusURL string `json:"status_url"`
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/sessions = %d, want 202", resp.StatusCode)
	}
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if created.ID == "" || created.StatusURL != "/v2/sessions/"+created.ID {
		t.Fatalf("bad accept payload: %+v", created)
	}

	st := waitRunDone(t, ts, created.ID, 0)
	if st.Suite != "wan-peering" || st.Fingerprint == "" || st.Results == 0 {
		t.Fatalf("bad session state after baseline: %+v", st)
	}
	base := st.Runs[0]
	if base.Status != "done" || !base.Baseline || base.Result == nil || !base.Result.OK {
		t.Fatalf("baseline run: %+v (err %s)", base, base.Error)
	}
	if base.Result.DirtyChecks != base.Result.TotalChecks || base.Result.Solved == 0 {
		t.Fatalf("baseline should be fully dirty and solve checks: %+v", base.Result)
	}

	// No-op update: everything reused, nothing solved.
	seq := postUpdateV2(t, ts, created.ID, `{"network": {"generator": `+gen(1)+`}}`)
	st = waitRunDone(t, ts, created.ID, seq)
	noop := st.Runs[seq]
	if noop.Status != "done" || noop.Result == nil || !noop.Result.OK {
		t.Fatalf("no-op update: %+v (err %s)", noop, noop.Error)
	}
	if noop.Result.DirtyChecks != 0 || noop.Result.Solved != 0 ||
		noop.Result.ReusedResults != noop.Result.TotalChecks {
		t.Fatalf("no-op update should reuse everything: %+v", noop.Result)
	}

	// Growth update: adding an edge router dirties part of the suite.
	seq = postUpdateV2(t, ts, created.ID, `{"network": {"generator": `+gen(2)+`}}`)
	st = waitRunDone(t, ts, created.ID, seq)
	grow := st.Runs[seq]
	if grow.Status != "done" || grow.Result == nil || !grow.Result.OK {
		t.Fatalf("growth update: %+v (err %s)", grow, grow.Error)
	}
	r := grow.Result
	if r.ReusedResults == 0 || r.DirtyChecks == 0 || r.DirtyChecks >= r.TotalChecks {
		t.Fatalf("growth update should mix reuse and dirty work: %+v", r)
	}
	if r.Solved >= base.Result.Solved+r.TotalChecks-r.ReusedResults+1 {
		t.Fatalf("growth update solved too much: %+v", r)
	}
	if len(r.ChangedRouters) == 0 {
		t.Fatalf("growth update should report changed routers: %+v", r)
	}

	// Errors: unknown session, malformed network.
	resp, _ = postJSON(t, ts.URL+"/v2/sessions/session-999/update", `{"network": {"generator": `+gen(1)+`}}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session update = %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v2/sessions/"+created.ID+"/update", `{"network": {"generator": {"kind": "torus"}}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed-network update = %d, want 400", resp.StatusCode)
	}

	// Delete the session: it disappears, and further use 404s.
	del := func() int {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v2/sessions/"+created.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(); code != http.StatusOK {
		t.Fatalf("DELETE session = %d, want 200", code)
	}
	if code := del(); code != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", code)
	}
	resp, err = http.Get(ts.URL + "/v2/sessions/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET deleted session = %d, want 404", resp.StatusCode)
	}
}

// TestBadRequests exercises the API error contract.
func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad-json", `{`, http.StatusBadRequest},
		{"unknown-suite", `{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "nope"}]}`, http.StatusBadRequest},
		{"no-network", `{"properties": [{"name": "fig1-no-transit"}]}`, http.StatusBadRequest},
		{"both-networks", `{"network": {"config": "x", "generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit"}]}`, http.StatusBadRequest},
		{"bad-generator", `{"network": {"generator": {"kind": "torus"}}, "properties": [{"name": "fig1-no-transit"}]}`, http.StatusBadRequest},
		{"bad-config", `{"network": {"config": "not a config"}, "properties": [{"name": "fig1-no-transit"}]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _ := postJSON(t, ts.URL+"/v2/verify", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v2/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestRemovedV1RoutesAnswerNotFound: the single-suite routes are gone. With a
// live job-1 and session-1 that their successors serve, every removed route
// answers 404 or 405 and touches neither.
func TestRemovedV1RoutesAnswerNotFound(t *testing.T) {
	ts := newTestServer(t)
	job := postVerify(t, ts, fig1Plan)
	_, accepted := postJSON(t, ts.URL+"/v2/sessions", fig1Plan)
	sess, _ := accepted["id"].(string)
	if job != "job-1" || sess != "session-1" {
		t.Fatalf("ids %q, %q: want job-1 and session-1", job, sess)
	}
	waitDone(t, ts, job)
	waitRunDone(t, ts, sess, 0)

	v1Body := `{"suite": "fig1-no-transit", "generator": {"kind": "fig1"}}`
	for _, r := range []struct{ method, path string }{
		{http.MethodPost, "/v1/verify"},
		{http.MethodGet, "/v1/jobs/job-1"},
		{http.MethodGet, "/v1/stats"},
		{http.MethodPost, "/v1/sessions"},
		{http.MethodPost, "/v1/sessions/session-1/update"},
		{http.MethodGet, "/v1/sessions/session-1"},
		{http.MethodDelete, "/v1/sessions/session-1"},
	} {
		req, err := http.NewRequest(r.method, ts.URL+r.path, bytes.NewBufferString(v1Body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 404 or 405", r.method, r.path, resp.StatusCode)
		}
	}
	if st := getSession(t, ts, sess); len(st.Runs) != 1 {
		t.Fatalf("a removed route reached the session: %d runs", len(st.Runs))
	}
	if st := getStatus(t, ts); st.Jobs != 1 || st.Sessions != 1 {
		t.Fatalf("a removed route changed the tables: %d jobs, %d sessions", st.Jobs, st.Sessions)
	}
}

// --- v2 plan API ---

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

// TestV2PlanVerifyEventsAndSnapshot drives the v2 surface end to end: POST
// a multi-property scoped plan, follow the NDJSON event stream to the final
// plan event, and cross-check the grouped job snapshot and cross-property
// cache reuse.
func TestV2PlanVerifyEventsAndSnapshot(t *testing.T) {
	ts := newTestServer(t)
	resp, accepted := postJSON(t, ts.URL+"/v2/verify", `{
		"network": {"generator": {"kind": "wan", "regions": 2, "routers_per_region": 2,
		                          "edge_routers": 1, "dcs_per_region": 1, "peers_per_edge": 1}},
		"properties": [{"name": "wan-peering", "routers": ["wan-r0-0"]},
		               {"name": "wan-peering", "routers": ["wan-r1-0"]}],
		"options": {"wan_regions": 2}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/verify = %d (%v), want 202", resp.StatusCode, accepted)
	}
	id, _ := accepted["id"].(string)
	if id == "" || accepted["events_url"] != "/v2/jobs/"+id+"/events" ||
		accepted["status_url"] != "/v2/jobs/"+id {
		t.Fatalf("bad accept payload: %+v", accepted)
	}

	// Follow the event stream: it must replay history, stream live events,
	// and terminate with the plan event.
	eventsResp, err := http.Get(ts.URL + "/v2/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eventsResp.Body.Close()
	if ct := eventsResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type = %q", ct)
	}
	var checks, problems, properties, plans int
	var planOK bool
	sc := bufio.NewScanner(eventsResp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
			OK   *bool  `json:"ok"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "check":
			checks++
		case "problem":
			problems++
		case "property":
			properties++
			if ev.OK == nil || !*ev.OK {
				t.Fatalf("property event not ok: %s", sc.Text())
			}
		case "plan":
			plans++
			planOK = ev.OK != nil && *ev.OK
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	wantProblems := 2 * len(netgen.PeeringProperties(2))
	// Every check passes, and the default results mode reports only the
	// ones that do not.
	if checks != 0 || problems != wantProblems || properties != 2 || plans != 1 || !planOK {
		t.Fatalf("event stream: %d checks, %d problems (want %d), %d properties, %d plans, ok=%v",
			checks, problems, wantProblems, properties, plans, planOK)
	}

	// The grouped snapshot agrees, and the two scoped instances of the same
	// suite shared their checks on the engine.
	resp2, err := http.Get(ts.URL + "/v2/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var job struct {
		Status     string `json:"status"`
		OK         *bool  `json:"ok"`
		Properties []struct {
			Property struct {
				Name    string   `json:"name"`
				Routers []string `json:"routers"`
			} `json:"property"`
			OK    *bool `json:"ok"`
			Stats struct {
				Checks    int `json:"checks"`
				CacheHits int `json:"cache_hits"`
				DedupHits int `json:"dedup_hits"`
			} `json:"stats"`
			Problems []struct {
				Status string `json:"status"`
				Report *struct {
					OK bool `json:"ok"`
				} `json:"report"`
			} `json:"problems"`
		} `json:"properties"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.Status != "done" || job.OK == nil || !*job.OK || len(job.Properties) != 2 {
		t.Fatalf("v2 snapshot: %+v", job)
	}
	reuse := 0
	for i, pr := range job.Properties {
		if pr.OK == nil || !*pr.OK || pr.Property.Name != "wan-peering" || len(pr.Property.Routers) != 1 {
			t.Fatalf("property %d: %+v", i, pr)
		}
		for _, pb := range pr.Problems {
			if pb.Status != "done" || pb.Report == nil || !pb.Report.OK {
				t.Fatalf("property %d problem: %+v", i, pb)
			}
		}
		reuse += pr.Stats.CacheHits + pr.Stats.DedupHits
	}
	if reuse == 0 {
		t.Error("expected cross-property cache/dedup reuse in per-property stats")
	}
}

// TestV2LateEventSubscriber: subscribing after completion still replays the
// full history and terminates.
func TestV2LateEventSubscriber(t *testing.T) {
	ts := newTestServer(t)
	_, accepted := postJSON(t, ts.URL+"/v2/verify",
		`{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit"}]}`)
	id := accepted["id"].(string)
	waitDone(t, ts, id)

	resp, err := http.Get(ts.URL + "/v2/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sawPlan bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"type":"plan"`)) {
			sawPlan = true
		}
	}
	if !sawPlan {
		t.Fatal("late subscriber did not see the replayed plan event")
	}
}

// TestV2BadRequests exercises the v2 error contract.
func TestV2BadRequests(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad-json", `{`, http.StatusBadRequest},
		{"no-network", `{"properties": [{"name": "fig1-no-transit"}]}`, http.StatusBadRequest},
		{"no-properties", `{"network": {"generator": {"kind": "fig1"}}}`, http.StatusBadRequest},
		{"unknown-property", `{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "nope"}]}`, http.StatusBadRequest},
		{"unknown-router", `{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit", "routers": ["bogus"]}]}`, http.StatusBadRequest},
		{"config-path-rejected", `{"network": {"config_path": "/etc/passwd"}, "properties": [{"name": "fig1-no-transit"}]}`, http.StatusBadRequest},
		{"baseline-no-session", `{"network": {"baseline": "session-99"}, "properties": [{"name": "fig1-no-transit"}]}`, http.StatusBadRequest},
		// A request carries no delta baseline: "baseline" is an unknown option.
		{"delta-on-verify", `{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit"}], "options": {"baseline": {"generator": {"kind": "fig1"}}}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, out := postJSON(t, ts.URL+"/v2/verify", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
		if msg, _ := out["error"].(string); c.name == "config-path-rejected" && !strings.Contains(msg, "config_path") {
			// The rejection must happen at the API boundary — before any
			// filesystem access — so the error names the field, not the file.
			t.Errorf("config_path rejection should not touch the filesystem: %q", out["error"])
		}
	}
}

// TestRemovedAndUnknownFieldsRefused: plan bodies decode strictly, so the
// engine settings and the delta baseline a request no longer carries — and
// a misspelled scope, which a lenient decoder dropped to verify every
// router — are a 400 naming the field on both plan endpoints.
func TestRemovedAndUnknownFieldsRefused(t *testing.T) {
	ts := newTestServer(t)
	const prefix = `{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit"`
	for _, tc := range []struct{ body, field string }{
		{prefix + `}], "options": {"workers": 4}}`, "workers"},
		{prefix + `}], "options": {"store": "/tmp/x"}}`, "store"},
		{prefix + `}], "options": {"baseline": {"generator": {"kind": "fig1"}}}}`, "baseline"},
		{prefix + `, "router": ["R2"]}]}`, "router"},
	} {
		for _, path := range []string{"/v2/verify", "/v2/sessions"} {
			resp, out := postJSON(t, ts.URL+path, tc.body)
			msg, _ := out["error"].(string)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, `"`+tc.field+`"`) {
				t.Errorf("%s with %q: status %d, error %q; want 400 naming the field", path, tc.field, resp.StatusCode, msg)
			}
		}
	}
}

// TestRequestBodyTooLarge: every decode site must cap bodies at 1 MiB and
// answer 413.
func TestRequestBodyTooLarge(t *testing.T) {
	ts := newTestServer(t)
	huge := `{"network": {"config": "` + strings.Repeat("x", 2<<20) + `"}}`
	for _, url := range []string{"/v2/verify", "/v2/sessions"} {
		resp, _ := postJSON(t, ts.URL+url, huge)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with 2 MiB body = %d, want 413", url, resp.StatusCode)
		}
	}
	// Session update decode sites, against a real session.
	_, accepted := postJSON(t, ts.URL+"/v2/sessions", fig1Plan)
	id := accepted["id"].(string)
	for _, url := range []string{"/v2/sessions/" + id + "/update", "/v2/sessions/" + id + "/migrate"} {
		resp, _ := postJSON(t, ts.URL+url, huge)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with 2 MiB body = %d, want 413", url, resp.StatusCode)
		}
	}
	waitRunDone(t, ts, id, 0) // the baseline must not outlive the engine
}

// TestV2SessionScopedPlan: a v2 session pins a scoped multi-property plan;
// updates inherit the scoping, and a v2 verify can reference the session's
// pinned baseline as its network source.
func TestV2SessionScopedPlan(t *testing.T) {
	ts := newTestServer(t)
	gen := func(edgeRouters int) string {
		return fmt.Sprintf(`{"kind": "wan", "regions": 2, "routers_per_region": 1,
			"edge_routers": %d, "dcs_per_region": 1, "peers_per_edge": 2}`, edgeRouters)
	}
	resp, accepted := postJSON(t, ts.URL+"/v2/sessions", `{
		"network": {"generator": `+gen(1)+`},
		"properties": [{"name": "wan-peering", "routers": ["wan-r0-0", "wan-r1-0"]}],
		"options": {"wan_regions": 2}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/sessions = %d (%v), want 202", resp.StatusCode, accepted)
	}
	id := accepted["id"].(string)
	if accepted["status_url"] != "/v2/sessions/"+id {
		t.Fatalf("bad accept payload: %+v", accepted)
	}

	st := waitRunDone(t, ts, id, 0)
	base := st.Runs[0]
	if base.Status != "done" || base.Result == nil || !base.Result.OK {
		t.Fatalf("baseline run: %+v (err %s)", base, base.Error)
	}
	// The scoped plan covers exactly 2 routers × 11 properties.
	if want := 2 * len(netgen.PeeringProperties(2)); base.Result.TotalChecks == 0 ||
		len(st.Runs) != 1 || baseProblemCount(t, ts, id) != want {
		t.Fatalf("scoped baseline shape wrong: %+v (problems %d, want %d)",
			base.Result, baseProblemCount(t, ts, id), want)
	}

	// Update with a grown network: scoping is inherited, work is reused.
	resp, out := postJSON(t, ts.URL+"/v2/sessions/"+id+"/update",
		`{"network": {"generator": `+gen(2)+`}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST v2 update = %d (%v), want 202", resp.StatusCode, out)
	}
	st = waitRunDone(t, ts, id, 1)
	upd := st.Runs[1]
	if upd.Status != "done" || upd.Result == nil || !upd.Result.OK {
		t.Fatalf("update run: %+v (err %s)", upd, upd.Error)
	}
	if upd.Result.ReusedResults == 0 || baseProblemCount(t, ts, id) != 2*len(netgen.PeeringProperties(2)) {
		t.Fatalf("scoped update should reuse and keep scope: %+v", upd.Result)
	}

	// An update whose network no longer contains a scoped router must be
	// rejected, not verified vacuously (wan-r1-0 vanishes with regions=1).
	resp, out = postJSON(t, ts.URL+"/v2/sessions/"+id+"/update",
		`{"network": {"generator": {"kind": "wan", "regions": 1, "routers_per_region": 1,
		                            "edge_routers": 2, "dcs_per_region": 1, "peers_per_edge": 2}}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("update dropping a scoped router = %d (%v), want 400", resp.StatusCode, out)
	}

	// A v2 verify over the session's pinned baseline.
	resp, accepted = postJSON(t, ts.URL+"/v2/verify", `{
		"network": {"baseline": "`+id+`"},
		"properties": [{"name": "wan-ip-reuse"}],
		"options": {"wan_regions": 2}
	}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("baseline-ref verify = %d (%v), want 202", resp.StatusCode, accepted)
	}
	j := waitDone(t, ts, accepted["id"].(string))
	if j.OK == nil || !*j.OK {
		t.Fatalf("baseline-ref job failed: %+v", j)
	}
}

// baseProblemCount counts the problems of the session's latest run.
func baseProblemCount(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v2/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s struct {
		Runs []struct {
			Result *struct {
				Problems []struct {
					Name string `json:"name"`
				} `json:"problems"`
			} `json:"result"`
		} `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	last := s.Runs[len(s.Runs)-1]
	if last.Result == nil {
		return -1
	}
	return len(last.Result.Problems)
}

// TestSessionUpdateAmbiguousSourceRejected: an update body setting both
// config and generator must 400, not silently pick one.
func TestSessionUpdateAmbiguousSourceRejected(t *testing.T) {
	ts := newTestServer(t)
	_, accepted := postJSON(t, ts.URL+"/v2/sessions", fig1Plan)
	id := accepted["id"].(string)
	ambiguous := fmt.Sprintf(`{"config": %q, "generator": {"kind": "fig1"}}`,
		netgen.Fig1DSL(netgen.Fig1Options{}))
	// Update bodies nest the source under "network"; a source at the top
	// level is no source at all.
	for _, body := range []string{`{"network": ` + ambiguous + `}`, ambiguous} {
		resp, out := postJSON(t, ts.URL+"/v2/sessions/"+id+"/update", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("update %.40s... = %d (%v), want 400", body, resp.StatusCode, out)
		}
	}
	waitRunDone(t, ts, id, 0) // the baseline must not outlive the engine
}
