package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lightyear/internal/engine"
)

// waitDoneV2 polls the v2 snapshot until the job completes.
func waitDoneV2(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v2/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j map[string]any
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if j["status"] == "done" {
			return j
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not complete in time", id)
	return nil
}

// TestV2SolverBackendAndStats: the request's solver option routes a
// two-property plan (a scoped wan-peering sweep and the sat-stress
// pigeonholes) to the portfolio backend, every property's stats say so,
// and /v1/status exposes the per-backend counters.
func TestV2SolverBackendAndStats(t *testing.T) {
	ts := newTestServer(t)
	_, accepted := postJSON(t, ts.URL+"/v2/verify", `{
		"network": {"generator": {"kind": "wan", "regions": 2, "routers_per_region": 1,
		                          "edge_routers": 1, "peers_per_edge": 2}},
		"properties": [{"name": "wan-peering", "routers": ["edge-0"]},
		               {"name": "sat-stress"}],
		"options": {"wan_regions": 2, "solver": {"backend": "portfolio"}}
	}`)
	id, _ := accepted["id"].(string)
	if id == "" {
		t.Fatalf("no job id: %+v", accepted)
	}
	job := waitDoneV2(t, ts, id)
	if ok, _ := job["ok"].(bool); !ok {
		t.Fatalf("portfolio plan not ok: %+v", job)
	}
	props := job["properties"].([]any)
	if len(props) != 2 {
		t.Fatalf("%d properties, want 2", len(props))
	}
	raced := 0.0
	for _, p := range props {
		stats := p.(map[string]any)["stats"].(map[string]any)
		if stats["backend"] != "portfolio" {
			t.Fatalf("property stats backend = %v, want portfolio", stats["backend"])
		}
		r, _ := stats["raced"].(float64)
		raced += r
	}
	if raced == 0 {
		t.Fatalf("no racing recorded: %+v", props)
	}

	backends := getStatus(t, ts).Engine.Backends
	bs, ok := backends["portfolio"]
	if !ok || bs.Solved == 0 || bs.Raced == 0 {
		t.Fatalf("/v1/status backend counters: %+v", backends)
	}
}

// TestV2UnknownStatusOverHTTP: a starved conflict budget yields per-check
// "unknown" status in the job's reports — visibly distinct from "fail".
func TestV2UnknownStatusOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	_, accepted := postJSON(t, ts.URL+"/v2/verify", `{
		"network": {"generator": {"kind": "fig1"}},
		"properties": [{"name": "sat-stress"}],
		"options": {"solver": {"backend": "native", "budget": 1}}
	}`)
	id, _ := accepted["id"].(string)
	job := waitDoneV2(t, ts, id)
	if ok, _ := job["ok"].(bool); ok {
		t.Fatal("budget-starved job reported ok")
	}
	props := job["properties"].([]any)
	problems := props[0].(map[string]any)["problems"].([]any)
	unknown, failed := 0, 0
	for _, pb := range problems {
		rep, _ := pb.(map[string]any)["report"].(map[string]any)
		if rep == nil {
			t.Fatalf("problem without report: %+v", pb)
		}
		unknown += int(rep["num_unknown"].(float64))
		failed += int(rep["num_failed"].(float64))
	}
	if unknown == 0 || failed != 0 {
		t.Fatalf("num_unknown=%d num_failed=%d, want >0 and 0", unknown, failed)
	}

	// An unknown backend name is a 400, not a wedged job.
	resp, body := postJSON(t, ts.URL+"/v2/verify", `{
		"network": {"generator": {"kind": "fig1"}},
		"properties": [{"name": "sat-stress"}],
		"options": {"solver": {"backend": "bogus"}}
	}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown backend = %d (%v), want 400", resp.StatusCode, body)
	}
}

// TestEventWindowTruncation: with a small -event-window, a late subscriber
// receives one truncation marker followed by only the retained suffix,
// ending with the plan event.
func TestEventWindowTruncation(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 4})
	t.Cleanup(eng.Close)
	srv := newServer(eng)
	srv.eventWindow = 8
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	_, accepted := postJSON(t, ts.URL+"/v2/verify",
		`{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit"}],
		  "options": {"results": "all"}}`)
	id := accepted["id"].(string)
	waitDoneV2(t, ts, id)

	resp, err := http.Get(ts.URL + "/v2/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// fig1-no-transit under results=all emits well over 8 events (one per check plus
	// start/problem/property/plan), so the history must have been truncated.
	if len(lines) != 9 { // marker + 8 retained events
		t.Fatalf("got %d events, want 9 (truncated marker + window)", len(lines))
	}
	first := lines[0]
	if first["type"] != "truncated" {
		t.Fatalf("first event = %+v, want the truncated marker", first)
	}
	if dropped, _ := first["dropped"].(float64); dropped == 0 {
		t.Fatalf("truncated marker lacks dropped count: %+v", first)
	}
	last := lines[len(lines)-1]
	if last["type"] != "plan" {
		t.Fatalf("stream did not end with the plan event: %+v", last)
	}
}
