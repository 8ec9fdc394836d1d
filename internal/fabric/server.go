package fabric

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/solver"
)

// SolveRequest is the coordinator→worker body of POST /v1/solve: one
// serialized obligation plus the conflict budget to decide it under.
type SolveRequest struct {
	Obligation *core.ObligationWire `json:"obligation"`
	// Budget caps SAT conflicts for this solve; 0 means unlimited.
	Budget int64 `json:"budget,omitempty"`
}

// SolveResponse is the worker→coordinator reply: the wire-form result plus
// the backend routing metadata solver.Outcome carries.
type SolveResponse struct {
	Result    *core.CheckResultWire `json:"result"`
	Raced     int                   `json:"raced,omitempty"`
	Escalated bool                  `json:"escalated,omitempty"`
	// Worker is the responding worker's self-reported name, echoed into
	// trace spans and provenance labels.
	Worker string `json:"worker,omitempty"`
}

// WorkerStatus is the GET /v1/status body: liveness plus cumulative solve
// counters, the worker-side half of the fleet's observability plane.
type WorkerStatus struct {
	Name          string           `json:"name"`
	Backend       string           `json:"backend"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	InFlight      int64            `json:"in_flight"`
	MaxConcurrent int              `json:"max_concurrent"`
	Solves        map[string]int64 `json:"solves"` // by verdict: ok/fail/unknown
	Rejected      int64            `json:"rejected"`
	BadRequests   int64            `json:"bad_requests"`
}

// ServerOptions configures a worker-side Server.
type ServerOptions struct {
	// Backend decides the obligations this worker receives. Required.
	Backend solver.Backend
	// Name labels this worker in responses; defaults to the backend name.
	Name string
	// MaxConcurrent bounds simultaneous solves; excess requests get 503
	// (the coordinator retries them on another shard). Default GOMAXPROCS.
	MaxConcurrent int
	// Logger receives per-solve records; nil disables logging.
	Logger *slog.Logger
}

// Server is the worker side of the solver fabric: an http.Handler exposing
// POST /v1/solve, GET /healthz, and GET /v1/status. It is used by
// cmd/lyworker and started in-process by tests and the repository
// benchmark.
type Server struct {
	backend solver.Backend
	name    string
	maxConc int
	logger  *slog.Logger
	start   time.Time

	sem      chan struct{}
	inflight atomic.Int64
	ok       atomic.Int64
	fail     atomic.Int64
	unknown  atomic.Int64
	rejected atomic.Int64
	badReq   atomic.Int64

	mux *http.ServeMux
}

// NewServer builds a worker server around a local backend.
func NewServer(opts ServerOptions) *Server {
	if opts.Backend == nil {
		panic("fabric: NewServer requires a backend")
	}
	maxConc := opts.MaxConcurrent
	if maxConc <= 0 {
		maxConc = runtime.GOMAXPROCS(0)
	}
	name := opts.Name
	if name == "" {
		name = opts.Backend.Name()
	}
	s := &Server{
		backend: opts.Backend,
		name:    name,
		maxConc: maxConc,
		logger:  opts.Logger,
		start:   time.Now(),
		sem:     make(chan struct{}, maxConc),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/status", s.handleStatus)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := WorkerStatus{
		Name:          s.name,
		Backend:       s.backend.Name(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      s.inflight.Load(),
		MaxConcurrent: s.maxConc,
		Solves: map[string]int64{
			"ok":      s.ok.Load(),
			"fail":    s.fail.Load(),
			"unknown": s.unknown.Load(),
		},
		Rejected:    s.rejected.Load(),
		BadRequests: s.badReq.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req SolveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.badReq.Add(1)
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	ob, err := req.Obligation.Obligation()
	if err != nil {
		s.badReq.Add(1)
		http.Error(w, fmt.Sprintf("bad obligation: %v", err), http.StatusBadRequest)
		return
	}

	// Admission: bound concurrent solves. A saturated worker answers 503
	// immediately rather than queueing unboundedly — the coordinator's
	// retry path moves the solve to another shard.
	select {
	case s.sem <- struct{}{}:
	default:
		s.rejected.Add(1)
		http.Error(w, "worker saturated", http.StatusServiceUnavailable)
		return
	}
	defer func() { <-s.sem }()

	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	t0 := time.Now()
	out := s.backend.Solve(r.Context(), ob, solver.Budget{Conflicts: req.Budget})
	switch out.Status {
	case core.StatusOK:
		s.ok.Add(1)
	case core.StatusFail:
		s.fail.Add(1)
	default:
		s.unknown.Add(1)
	}
	if s.logger != nil {
		s.logger.Info("solve",
			"key", ob.Key(),
			"kind", ob.Kind.String(),
			"loc", ob.Loc.String(),
			"status", out.Status.String(),
			"conflicts", out.Solver.Conflicts,
			"elapsed", time.Since(t0),
		)
	}

	resp := SolveResponse{
		Result:    core.EncodeCheckResult(out.CheckResult),
		Raced:     out.Raced,
		Escalated: out.Escalated,
		Worker:    s.name,
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
