package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"lightyear/internal/engine"
	"lightyear/internal/store"
	"lightyear/internal/telemetry"
)

func getHealthJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, out
}

// TestHealthAndStatus drives the whole health plane on a live server: the
// liveness and readiness probes answer ok, and after a sat-stress plan
// /v1/status rolls up non-zero solver-depth provenance for the backend that
// ran it, alongside identity, readiness, and trace-ring occupancy.
func TestHealthAndStatus(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 4, Telemetry: telemetry.New(0)})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newServer(eng).routes())
	t.Cleanup(ts.Close)

	code, body := getHealthJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("GET /healthz = %d %v, want 200 ok", code, body)
	}
	code, body = getHealthJSON(t, ts.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("GET /readyz = %d %v, want 200", code, body)
	}
	if ready, _ := body["ready"].(bool); !ready {
		t.Fatalf("fresh server not ready: %v", body)
	}
	comps := body["components"].(map[string]any)
	for _, name := range []string{"dispatcher", "suites"} {
		c, ok := comps[name].(map[string]any)
		if !ok || c["ok"] != true {
			t.Errorf("component %s not ok: %v", name, comps[name])
		}
	}
	if _, hasStore := comps["store"]; hasStore {
		t.Error("store probe reported without a configured store")
	}
	// Admission sheds per request (429); it is not a readiness component.
	if _, hasAdmission := comps["admission"]; hasAdmission {
		t.Error("admission reported as a readiness component")
	}

	_, accepted := postJSON(t, ts.URL+"/v2/verify", `{
		"network": {"generator": {"kind": "fig1"}},
		"properties": [{"name": "sat-stress"}],
		"options": {"solver": {"backend": "portfolio"}}
	}`)
	id, _ := accepted["id"].(string)
	if id == "" {
		t.Fatalf("no job id: %+v", accepted)
	}
	waitDoneV2(t, ts, id)

	code, status := getHealthJSON(t, ts.URL+"/v1/status")
	if code != http.StatusOK || status["status"] != "ok" {
		t.Fatalf("GET /v1/status = %d %v, want 200 ok", code, status["status"])
	}
	build := status["build"].(map[string]any)
	if gv, _ := build["go_version"].(string); gv == "" {
		t.Errorf("status build info lacks go_version: %v", build)
	}
	if up, _ := status["uptime_seconds"].(float64); up <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", status["uptime_seconds"])
	}
	if ready := status["ready"].(map[string]any); ready["ready"] != true {
		t.Errorf("status embeds not-ready probes: %v", ready)
	}
	if suites, _ := status["suites"].([]any); len(suites) == 0 {
		t.Error("status lists no suites")
	}
	traces := status["traces"].(map[string]any)
	if cap, _ := traces["capacity"].(float64); cap <= 0 {
		t.Errorf("trace ring capacity = %v, want > 0", traces["capacity"])
	}
	backends := status["engine"].(map[string]any)["backends"].(map[string]any)
	solver := backends["portfolio"].(map[string]any)["solver"].(map[string]any)
	if c, _ := solver["conflicts"].(float64); c <= 0 {
		t.Errorf("portfolio solver depth conflicts = %v, want > 0 after sat-stress", solver["conflicts"])
	}
	if d, _ := solver["decisions"].(float64); d <= 0 {
		t.Errorf("portfolio solver depth decisions = %v, want > 0 after sat-stress", solver["decisions"])
	}
}

// TestReadyzStoreUnwritable: when the store journal's directory stops
// accepting writes, /readyz flips to 503 naming the store component, and
// /v1/status degrades — while liveness stays ok.
func TestReadyzStoreUnwritable(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	eng := engine.New(engine.Options{Workers: 1, Cache: st})
	t.Cleanup(eng.Close)
	srv := newServer(eng)
	srv.store = st
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	if code, body := getHealthJSON(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("GET /readyz with healthy store = %d %v, want 200", code, body)
	}

	// Make the journal directory reject new files. Root ignores permission
	// bits (CAP_DAC_OVERRIDE), so if the chmod alone doesn't break the
	// probe, remove the directory instead — the same failure class: the
	// journal's directory no longer accepts writes.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	if st.ProbeWritable() == nil {
		os.Chmod(dir, 0o755)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}

	code, body := getHealthJSON(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz with unwritable journal = %d %v, want 503", code, body)
	}
	if ready, _ := body["ready"].(bool); ready {
		t.Error("unwritable store still reports ready")
	}
	sc, ok := body["components"].(map[string]any)["store"].(map[string]any)
	if !ok || sc["ok"] == true {
		t.Fatalf("503 does not name the store component: %v", body["components"])
	}
	if msg, _ := sc["error"].(string); msg == "" {
		t.Error("store component failure carries no error message")
	}

	if code, status := getHealthJSON(t, ts.URL+"/v1/status"); code != http.StatusOK || status["status"] != "degraded" {
		t.Errorf("GET /v1/status = %d %v, want 200 degraded", code, status["status"])
	}
	if code, _ := getHealthJSON(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Error("liveness must stay ok while unready")
	}
}
