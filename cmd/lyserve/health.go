package main

// The health/status plane: GET /healthz (liveness), GET /readyz (component
// readiness probes), and GET /v1/status (the single JSON rollup a dashboard
// or a shard coordinator polls): identity (uptime, build info), component
// health, engine, tenant, backend and solver-depth counters, job and session
// counts, store and fabric counters, and trace-ring occupancy in one
// document.

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"lightyear/internal/engine"
	"lightyear/internal/fabric"
	"lightyear/internal/netgen"
	"lightyear/internal/store"
)

// handleHealthz is the liveness probe: the process is up and serving HTTP.
// It deliberately checks nothing else — a deadlocked dispatcher or a
// read-only store dir make the service unready, not dead.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// componentHealth is one /readyz probe result.
type componentHealth struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// readyzJSON is the GET /readyz response. Ready is the conjunction of the
// component probes; a 503 names every failing component.
type readyzJSON struct {
	Ready      bool                       `json:"ready"`
	Components map[string]componentHealth `json:"components"`
}

// probeComponents runs the readiness probes:
//
//   - store: the journal directory still accepts writes (only with -store)
//   - dispatcher: the engine's dispatcher is live (not closed)
//   - suites: the netgen registry has registered suites
func (s *server) probeComponents() readyzJSON {
	out := readyzJSON{Ready: true, Components: make(map[string]componentHealth)}
	set := func(name string, err error) {
		c := componentHealth{OK: err == nil}
		if err != nil {
			c.Error = err.Error()
			out.Ready = false
		}
		out.Components[name] = c
	}

	if s.store != nil {
		set("store", s.store.ProbeWritable())
	}
	var dispatchErr error
	if !s.eng.Live() {
		dispatchErr = errDispatcherClosed
	}
	set("dispatcher", dispatchErr)
	var suiteErr error
	if len(netgen.SuiteNames()) == 0 {
		suiteErr = errNoSuites
	}
	set("suites", suiteErr)
	return out
}

// Sentinel probe errors, as errors so probeComponents stays uniform.
var (
	errDispatcherClosed = errString("engine dispatcher is closed")
	errNoSuites         = errString("no verification suites registered")
)

type errString string

func (e errString) Error() string { return string(e) }

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	out := s.probeComponents()
	if !out.Ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, out)
}

// buildInfoJSON identifies the running binary.
type buildInfoJSON struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

func buildInfo() buildInfoJSON {
	out := buildInfoJSON{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out.Module = bi.Main.Path
	out.Version = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out.Revision = s.Value
		case "vcs.modified":
			out.Modified = s.Value == "true"
		}
	}
	return out
}

// traceRingJSON is the trace-ring occupancy reported in /v1/status.
type traceRingJSON struct {
	Retained int `json:"retained"`
	Capacity int `json:"capacity"`
}

// statusJSONV1 is the GET /v1/status response: one rollup of identity,
// component health, engine/tenant/backend/solver-depth stats, and telemetry
// retention.
type statusJSONV1 struct {
	Status        string         `json:"status"` // ok | degraded
	Started       time.Time      `json:"started"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Build         buildInfoJSON  `json:"build"`
	Ready         readyzJSON     `json:"ready"`
	Engine        engine.Stats   `json:"engine"`
	Jobs          int            `json:"jobs"`
	Sessions      int            `json:"sessions"`
	Store         *store.Stats   `json:"store,omitempty"`
	Fabric        *fabric.Stats  `json:"fabric,omitempty"`
	Suites        []string       `json:"suites"`
	Traces        *traceRingJSON `json:"traces,omitempty"`
	// Retained counts the per-check entries the job table holds in finished
	// jobs' reports — failures only, under the default results mode.
	Retained int `json:"retained_check_results"`
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs, sessions := len(s.jobs), len(s.sessions)
	s.mu.Unlock()
	out := statusJSONV1{
		Status:        "ok",
		Started:       s.started,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Build:         buildInfo(),
		Ready:         s.probeComponents(),
		Engine:        s.eng.Stats(),
		Jobs:          jobs,
		Sessions:      sessions,
		Fabric:        fabric.Snapshot(),
		Suites:        netgen.SuiteNames(),
		Retained:      s.retainedCheckResults(),
	}
	if !out.Ready.Ready {
		out.Status = "degraded"
	}
	if st, ok := s.eng.Cache().(*store.Store); ok {
		stats := st.Stats()
		out.Store = &stats
	}
	if s.rec != nil {
		retained, capacity := s.rec.TraceStats()
		out.Traces = &traceRingJSON{Retained: retained, Capacity: capacity}
	}
	writeJSON(w, out)
}
