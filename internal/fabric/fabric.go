// Package fabric ships one obligation over HTTP to a worker that decides it
// with a local backend: Remote is the coordinator's solver.Backend and
// Server is the worker's handler for POST /v1/solve. No product path
// selects it; the package stays only until the repository benchmark drops
// its fabric.* layer, which measures the wire codec and one loopback round
// trip against a native solve.
//
// Input that arrives over the wire is never trusted: the server bounds and
// decodes the request body, and the coordinator rejects a malformed or
// inconsistent response with a WireError. Any transport or wire failure
// makes the solve StatusUnknown, which the engine never caches.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"lightyear/internal/core"
	"lightyear/internal/solver"
)

// name is the backend's Name; a worker's result is labelled
// "remote(<addr>)/<worker backend>".
const name = "remote"

// WireError reports a worker that answered 200 with a body the coordinator
// cannot trust (malformed JSON, inconsistent verdict). The solve surfaces it
// as StatusUnknown rather than a verdict.
type WireError struct {
	Worker string
	Reason string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("fabric: malformed response from %s: %s", e.Worker, e.Reason)
}

// Config parameterizes a Remote backend.
type Config struct {
	// Workers holds the one worker address ("host:port").
	Workers []string
}

// Remote is the coordinator-side solver backend: it serializes each
// obligation and ships it to one worker.
type Remote struct {
	addr   string
	url    string
	client *http.Client
}

// New builds a Remote backend over one worker. Close releases its idle
// connections.
func New(cfg Config) (*Remote, error) {
	if len(cfg.Workers) != 1 {
		return nil, fmt.Errorf("fabric: want one worker address, got %d", len(cfg.Workers))
	}
	addr := cfg.Workers[0]
	return &Remote{
		addr:   addr,
		url:    "http://" + addr + "/v1/solve",
		client: &http.Client{Transport: &http.Transport{}},
	}, nil
}

// Close releases the backend's idle connections to its worker.
func (r *Remote) Close() { r.client.CloseIdleConnections() }

// Name implements solver.Backend.
func (r *Remote) Name() string { return name }

// Fingerprint makes solver.SameConfig treat Remotes over the same worker as
// interchangeable.
func (r *Remote) Fingerprint() string { return name + ":" + r.addr }

// Solve implements solver.Backend with one round trip to the worker. A
// failure anywhere on the way is an Unknown that explains itself.
func (r *Remote) Solve(ctx context.Context, ob *core.Obligation, b solver.Budget) solver.Outcome {
	out, err := r.roundTrip(ctx, ob, b.Conflicts)
	if err != nil {
		return solver.Outcome{CheckResult: core.CheckResult{
			Kind:           ob.Kind,
			Loc:            ob.Loc,
			Desc:           ob.Desc,
			Status:         core.StatusUnknown,
			Backend:        name + "(" + r.addr + ")",
			Counterexample: &core.Counterexample{Note: err.Error()},
		}}
	}
	return out
}

func (r *Remote) roundTrip(ctx context.Context, ob *core.Obligation, budget int64) (solver.Outcome, error) {
	var out solver.Outcome
	wire, err := core.EncodeObligation(ob)
	if err != nil {
		return out, fmt.Errorf("fabric: obligation not remotable: %w", err)
	}
	body, err := json.Marshal(SolveRequest{Obligation: wire, Budget: budget})
	if err != nil {
		return out, fmt.Errorf("fabric: encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url, bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return out, fmt.Errorf("fabric: %s answered %s: %s", r.addr, resp.Status, bytes.TrimSpace(msg))
	}

	var sr SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return out, &WireError{Worker: r.addr, Reason: fmt.Sprintf("decode: %v", err)}
	}
	cr, err := sr.Result.CheckResult()
	if err != nil {
		return out, &WireError{Worker: r.addr, Reason: err.Error()}
	}
	// Identity comes from the local obligation; provenance names the worker
	// and the backend that decided on it.
	cr.Kind, cr.Loc, cr.Desc = ob.Kind, ob.Loc, ob.Desc
	workerBackend := cr.Backend
	if workerBackend == "" {
		workerBackend = "native"
	}
	cr.Backend = name + "(" + r.addr + ")/" + workerBackend
	out.CheckResult = cr
	out.Raced = sr.Raced
	out.Escalated = sr.Escalated
	return out, nil
}
