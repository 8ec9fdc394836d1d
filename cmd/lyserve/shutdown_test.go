package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/solver"
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

// armedGate solves natively until armed; from then on every solve waits for
// Open, so a run started after arming stays in flight mid-step.
type armedGate struct {
	*gatedBackend
	armed    atomic.Bool
	held     chan struct{} // closed by the first solve that waits
	heldOnce sync.Once
}

func (g *armedGate) Solve(ctx context.Context, ob *core.Obligation, b solver.Budget) solver.Outcome {
	if g.armed.Load() {
		g.heldOnce.Do(func() { close(g.held) })
		<-g.open
	}
	return solver.Native(0).Solve(ctx, ob, b)
}

// TestStopDuringSessionMigration: stopping the server while a session
// migration is held mid-step does not panic. The engine drains the held
// step; the next step's submission finds the engine closed, and the session
// records the migration as failed.
func TestStopDuringSessionMigration(t *testing.T) {
	g := &armedGate{gatedBackend: newGatedBackend(), held: make(chan struct{})}
	srv := newServer(engine.New(engine.Options{Workers: 1, Backend: g}))
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	t.Cleanup(g.Open)
	id := createFig1Session(t, ts)

	g.armed.Store(true)
	streamed := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v2/sessions/"+id+"/migrate", "application/json", bytes.NewBufferString(goodOrderBody))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		streamed <- err
	}()
	select {
	case <-g.held:
	case <-time.After(time.Minute):
		t.Fatal("the migration's first step never reached the solver")
	}

	stopped := make(chan struct{})
	go func() {
		srv.stop()
		close(stopped)
	}()
	for {
		resv, err := srv.eng.Reserve(engine.DefaultTenant, 0)
		if errors.Is(err, engine.ErrClosed) {
			break
		}
		if err == nil {
			resv.Release()
		}
		time.Sleep(time.Millisecond)
	}
	g.Open()
	<-stopped
	srv.eng.Close()

	run := waitRunDone(t, ts, id, 1).Runs[1]
	if !run.Migrate || run.Status != "failed" || !strings.Contains(run.Error, engine.ErrClosed.Error()) {
		t.Fatalf("migration stopped mid-step: migrate %v, status %q, error %q", run.Migrate, run.Status, run.Error)
	}
	if err := <-streamed; err != nil {
		t.Fatalf("migration stream: %v", err)
	}
}
