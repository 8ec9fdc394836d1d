package fabric

import (
	"encoding/json"
	"fmt"
	"net/http"

	"lightyear/internal/core"
	"lightyear/internal/solver"
)

// maxRequestBytes bounds one POST /v1/solve body; a larger body is refused
// before it is decoded.
const maxRequestBytes = 16 << 20

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
}

// ServerOptions configures a worker-side Server.
type ServerOptions struct {
	// Backend decides the obligations this worker receives. Required.
	Backend solver.Backend
}

// Server is the worker side of the fabric: an http.Handler serving
// POST /v1/solve with a local backend.
type Server struct {
	backend solver.Backend
	mux     *http.ServeMux
}

// NewServer builds a worker server around a local backend.
func NewServer(opts ServerOptions) *Server {
	if opts.Backend == nil {
		panic("fabric: NewServer requires a backend")
	}
	s := &Server{backend: opts.Backend, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	ob, err := req.Obligation.Obligation()
	if err != nil {
		http.Error(w, fmt.Sprintf("bad obligation: %v", err), http.StatusBadRequest)
		return
	}
	out := s.backend.Solve(r.Context(), ob, solver.Budget{Conflicts: req.Budget})
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(SolveResponse{
		Result:    core.EncodeCheckResult(out.CheckResult),
		Raced:     out.Raced,
		Escalated: out.Escalated,
	})
}
