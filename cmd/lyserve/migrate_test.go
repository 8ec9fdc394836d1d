package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lightyear/internal/migrate"
	"lightyear/internal/netgen"
)

// createFig1Session pins a v2 session on the Figure-1 network with the
// no-transit property and waits for its baseline run.
func createFig1Session(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	return createSession(t, ts,
		`{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit"}]}`)
}

// createSession pins a v2 session on the given plan and waits for its
// baseline run.
func createSession(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v2/sessions", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /v2/sessions = %d (error: %s)", resp.StatusCode, e["error"])
	}
	var created struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&created)
	st := waitRunDone(t, ts, created.ID, 0)
	if st.Runs[0].Status != "done" {
		t.Fatalf("baseline run: %+v", st.Runs[0])
	}
	return created.ID
}

// postMigrate streams a migration plan and returns the decoded NDJSON
// events. A non-200 answer fails the test unless wantCode says otherwise.
func postMigrate(t *testing.T, ts *httptest.Server, id, body string, wantCode int) []migrate.Event {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v2/sessions/"+id+"/migrate", "application/json",
		bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST migrate = %d, want %d (error: %s)", resp.StatusCode, wantCode, e["error"])
	}
	if wantCode != http.StatusOK {
		return nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var events []migrate.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev migrate.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func eventOfType(events []migrate.Event, typ string) *migrate.Event {
	for i := range events {
		if events[i].Type == typ {
			return &events[i]
		}
	}
	return nil
}

const badOrderBody = `{"steps": [
	{"label": "retire", "mutation": {"kind": "remove-export-clause", "from": "R2", "to": "ISP2", "seq": 10}},
	{"label": "shield", "mutation": {"kind": "insert-export-deny", "from": "R2", "to": "ISP2", "seq": 5, "match": "community:100:1"}}
]}`

const goodOrderBody = `{"steps": [
	{"label": "shield", "mutation": {"kind": "insert-export-deny", "from": "R2", "to": "ISP2", "seq": 5, "match": "community:100:1"}},
	{"label": "retire", "mutation": {"kind": "remove-export-clause", "from": "R2", "to": "ISP2", "seq": 10}}
]}`

// TestSessionMigrate drives the endpoint end to end: a violating order
// streams its first violating step and rolls the session back; the safe
// order of the same steps verifies and re-pins the session on the migrated
// state, which follow-up updates delta against.
func TestSessionMigrate(t *testing.T) {
	ts := newTestServer(t)
	id := createFig1Session(t, ts)
	fpBefore := getSession(t, ts, id).Fingerprint

	// Violating order: retire-first leaks transit routes after step 0.
	events := postMigrate(t, ts, id, badOrderBody, http.StatusOK)
	viol := eventOfType(events, migrate.EvStepViolated)
	if viol == nil || viol.Step != 0 || viol.Label != "retire" {
		t.Fatalf("want step_violated at step 0 (retire), got %+v", viol)
	}
	if eventOfType(events, migrate.EvCheck) == nil {
		t.Fatal("the violating step should stream its failing checks")
	}
	done := eventOfType(events, migrate.EvDone)
	if done == nil || done.Result == nil || done.Result.OK {
		t.Fatalf("done event must carry the failed result: %+v", done)
	}
	if errEv := eventOfType(events, migrate.EvError); errEv != nil {
		t.Fatalf("plan verdicts are not stream errors: %+v", errEv)
	}

	// Rollback: the session still pins the original baseline, and a no-op
	// update against the original network reuses everything.
	st := waitRunDone(t, ts, id, 1)
	if st.Fingerprint != fpBefore {
		t.Fatalf("failed migration moved the session: %s -> %s", fpBefore, st.Fingerprint)
	}
	if len(st.Runs) != 2 || st.Runs[1].Status != "done" {
		t.Fatalf("migrate run should be recorded as done: %+v", st.Runs)
	}
	seq := postUpdateV2(t, ts, id, `{"network": {"generator": {"kind": "fig1"}}}`)
	st = waitRunDone(t, ts, id, seq)
	if r := st.Runs[seq].Result; r == nil || r.DirtyChecks != 0 || r.Solved != 0 {
		t.Fatalf("update after rollback must be a no-op against the original state: %+v", r)
	}

	// Safe order: the migration verifies, every step mixes dirty work and
	// reuse, and the session moves to the final state.
	events = postMigrate(t, ts, id, goodOrderBody, http.StatusOK)
	done = eventOfType(events, migrate.EvDone)
	if done == nil || done.Result == nil || !done.Result.OK {
		t.Fatalf("safe order must verify: %+v", done)
	}
	for _, sr := range done.Result.Steps {
		if !sr.OK || sr.Dirty == 0 || sr.Reused == 0 {
			t.Fatalf("step %s should delta, not re-verify: %+v", sr.Label, sr)
		}
	}
	st = waitRunDone(t, ts, id, seq+1)
	if st.Fingerprint == fpBefore {
		t.Fatal("successful migration must re-pin the session on the migrated state")
	}

	// Satellite consistency: a follow-up update deltas against the
	// *post-migration* state — submitting the pre-migration network now
	// shows R2's revert as dirty work, not a no-op.
	seq = postUpdateV2(t, ts, id, `{"network": {"generator": {"kind": "fig1"}}}`)
	st = waitRunDone(t, ts, id, seq)
	r := st.Runs[seq].Result
	if r == nil || r.DirtyChecks == 0 {
		t.Fatalf("update after migration must diff against the migrated state: %+v", r)
	}
	if len(r.ChangedRouters) != 1 || r.ChangedRouters[0] != "R2" {
		t.Fatalf("changed routers = %v, want [R2]", r.ChangedRouters)
	}
}

// TestCommentOnlyStepOnUndecidedSession: a session whose baseline left
// checks undecided (solver budget 1) must not accept a comment-only config
// step as a verified no-op — the unchanged network still has no verdict, so
// the step re-solves and the plan ends undecided.
func TestCommentOnlyStepOnUndecidedSession(t *testing.T) {
	ts := newTestServer(t)
	cfg := netgen.Fig1DSL(netgen.Fig1Options{})
	plan, _ := json.Marshal(map[string]any{
		"network":    map[string]string{"config": cfg},
		"properties": []map[string]string{{"name": "sat-stress"}},
		"options":    map[string]any{"solver": map[string]any{"backend": "native", "budget": 1}},
	})
	id := createSession(t, ts, string(plan))
	if r := getSession(t, ts, id).Runs[0].Result; r == nil || r.Unknown == 0 {
		t.Fatalf("the budget-starved baseline should leave undecided checks: %+v", r)
	}

	steps, _ := json.Marshal(map[string]any{
		"steps": []map[string]string{{"label": "annotate", "config": "# note\n" + cfg}},
	})
	done := eventOfType(postMigrate(t, ts, id, string(steps), http.StatusOK), migrate.EvDone)
	if done == nil || done.Result == nil {
		t.Fatal("no done event")
	}
	res := done.Result
	if res.OK || !res.Undecided {
		t.Fatalf("comment-only step on an undecided session: ok=%v undecided=%v, want false/true (%s)",
			res.OK, res.Undecided, res.Reason)
	}
	if len(res.Steps) != 1 || res.Steps[0].Solved == 0 {
		t.Fatalf("the step must re-solve the undecided checks: %+v", res.Steps)
	}
}

// TestSessionMigrateSearch: an unordered change set streams search events
// and reports the safe order it found.
func TestSessionMigrateSearch(t *testing.T) {
	ts := newTestServer(t)
	id := createFig1Session(t, ts)
	body := `{"unordered": true, "steps": [
		{"label": "reinstate", "mutation": {"kind": "insert-export-deny", "from": "R2", "to": "ISP2", "seq": 10, "match": "community:100:1"}},
		{"label": "retire", "mutation": {"kind": "remove-export-clause", "from": "R2", "to": "ISP2", "seq": 10}},
		{"label": "shield", "mutation": {"kind": "insert-export-deny", "from": "R2", "to": "ISP2", "seq": 5, "match": "community:100:1"}}
	]}`
	events := postMigrate(t, ts, id, body, http.StatusOK)
	found := eventOfType(events, migrate.EvOrderFound)
	if found == nil || len(found.Labels) != 3 ||
		found.Labels[0] != "shield" || found.Labels[1] != "retire" || found.Labels[2] != "reinstate" {
		t.Fatalf("want order_found shield retire reinstate, got %+v", found)
	}
	done := eventOfType(events, migrate.EvDone)
	if done == nil || done.Result == nil || !done.Result.OK || done.Result.Ordered {
		t.Fatalf("search must succeed: %+v", done)
	}
}

// TestSessionMigrateRejects: malformed plans are 400s, foreign tenants
// 403s, unknown sessions 404s — all before anything is admitted or run.
func TestSessionMigrateRejects(t *testing.T) {
	ts := newTestServer(t)
	id := createFig1Session(t, ts)

	for name, body := range map[string]string{
		"no steps":        `{"steps": []}`,
		"pinned network":  `{"network": {"generator": {"kind": "fig1"}}, "steps": [{"mutation": {"kind": "tighten-imports", "at": "R1"}}]}`,
		"bad mutation":    `{"steps": [{"mutation": {"kind": "frobnicate"}}]}`,
		"bad config step": `{"steps": [{"config": "node { nonsense"}]}`,
	} {
		if postMigrate(t, ts, id, body, http.StatusBadRequest); t.Failed() {
			t.Fatalf("case %q", name)
		}
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/sessions/"+id+"/migrate",
		bytes.NewBufferString(goodOrderBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "intruder")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("foreign tenant = %d, want 403", resp.StatusCode)
	}

	postMigrate(t, ts, "session-999", goodOrderBody, http.StatusNotFound)
}

// postUpdateV2 submits a v2 session update and returns its run sequence.
func postUpdateV2(t *testing.T, ts *httptest.Server, id, body string) int {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v2/sessions/"+id+"/update", "application/json",
		bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST update = %d (error: %s)", resp.StatusCode, e["error"])
	}
	var out struct {
		Update int `json:"update"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	return out.Update
}
