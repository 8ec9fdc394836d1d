package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lightyear/internal/engine"
)

// TestStopFailsQueuedSessionRuns: stopping the server while a session's
// baseline is held in the engine and an update waits behind it does not
// panic and leaves nothing pending: the update is recorded as failed for
// the shutdown at once, and the baseline finishes as the engine drains.
func TestStopFailsQueuedSessionRuns(t *testing.T) {
	g := newGatedBackend()
	srv := newServer(engine.New(engine.Options{Workers: 1, Backend: g}))
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	t.Cleanup(g.Open)

	resp, accept := postJSON(t, ts.URL+"/v2/sessions", fig1Plan)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("session create: %d", resp.StatusCode)
	}
	id := accept["id"].(string)
	seq := postUpdateV2(t, ts, id, `{"network": {"generator": {"kind": "fig1"}}}`)

	stopped := make(chan struct{})
	go func() {
		srv.stop()
		close(stopped)
	}()
	if run := waitRunDone(t, ts, id, seq).Runs[seq]; run.Status != "failed" || run.Error != "server shutting down" {
		t.Fatalf("queued update after stop: status %q, error %q", run.Status, run.Error)
	}
	g.Open()
	<-stopped
	if run := waitRunDone(t, ts, id, 0).Runs[0]; run.Status != "done" || run.Error != "" {
		t.Fatalf("baseline held while stopping: status %q, error %q", run.Status, run.Error)
	}
}

// TestSessionRunAfterEngineClosed: a session run that starts after the
// engine has closed records engine.ErrClosed as its failure instead of
// taking the process down.
func TestSessionRunAfterEngineClosed(t *testing.T) {
	ts, srv := newTestServerWithState(t)
	id := createFig1Session(t, ts)
	srv.eng.Close()
	seq := postUpdateV2(t, ts, id, `{"network": {"generator": {"kind": "fullmesh", "size": 3}}}`)
	if run := waitRunDone(t, ts, id, seq).Runs[seq]; run.Status != "failed" || !strings.Contains(run.Error, engine.ErrClosed.Error()) {
		t.Fatalf("update after the engine closed: status %q, error %q", run.Status, run.Error)
	}
}
