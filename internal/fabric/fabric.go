// The coordinator half of the fabric: the Remote backend, its worker pool
// with consistent-hash routing, health probing, and circuit breaking, and
// the retry/fallback ladder. See doc.go for the package story and how to
// run a fleet.

package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/solver"
	"lightyear/internal/telemetry"
)

func init() {
	solver.RegisterRemote(func(s solver.Spec) (solver.Backend, error) {
		return FromSpec(s)
	})
}

// Defaults for Config fields left zero.
const (
	DefaultProbeInterval    = 2 * time.Second
	DefaultBreakerThreshold = 3
	DefaultRetryBackoff     = 50 * time.Millisecond
	DefaultMaxAttempts      = 3
	// maxRPCSpans caps rpc child spans recorded per solve span, so a
	// hundred-thousand-check job doesn't explode its trace tree.
	maxRPCSpans = 32
)

// Process-wide fabric environment, installed once at binary startup before
// any Remote is built (lyserve and lightyear main). Specs construct
// backends deep inside plan compilation where no recorder parameter exists,
// so the environment is package state by design.
var (
	envMu       sync.Mutex
	envRecorder *telemetry.Recorder
	envLogger   *slog.Logger
)

// SetTelemetry installs the process recorder used by pools built after the
// call. Call once at startup, before submitting workloads.
func SetTelemetry(rec *telemetry.Recorder) {
	envMu.Lock()
	envRecorder = rec
	envMu.Unlock()
}

// SetLogger installs the process logger for coordinator-side fabric events.
func SetLogger(l *slog.Logger) {
	envMu.Lock()
	envLogger = l
	envMu.Unlock()
}

func env() (*telemetry.Recorder, *slog.Logger) {
	envMu.Lock()
	defer envMu.Unlock()
	return envRecorder, envLogger
}

// sharedClient is the HTTP client all pools share: generous idle pools so
// long runs reuse connections to every worker.
var sharedClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	},
}

// WireError reports a worker that answered 200 with a body the coordinator
// cannot trust (malformed JSON, inconsistent verdict). It is terminal for
// the solve — retrying a worker that returns garbage risks caching garbage —
// and surfaces as StatusUnknown, which the engine never caches.
type WireError struct {
	Worker string
	Reason string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("fabric: malformed response from %s: %s", e.Worker, e.Reason)
}

// Config parameterizes a Remote backend.
type Config struct {
	// Workers is the worker address list ("host:port"). Required unless
	// every solve should fall back locally.
	Workers []string
	// Budget is a backend-bound conflict budget overriding the caller's
	// (Spec.Budget semantics).
	Budget int64
	// Fallback solves locally when the pool is empty, exhausted, or the
	// obligation is not remotable. Defaults to the native backend.
	Fallback solver.Backend
	// MaxAttempts bounds distinct workers tried per solve. Default 3
	// (capped at the pool size).
	MaxAttempts int
	// RetryBackoff is the base backoff between attempts (doubles per
	// attempt). Default 50ms.
	RetryBackoff time.Duration
	// ProbeInterval is the health-probe period. Default 2s.
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// worker's circuit breaker. Default 3.
	BreakerThreshold int
	// Recorder overrides the process recorder installed via SetTelemetry.
	Recorder *telemetry.Recorder
	// Logger overrides the process logger installed via SetLogger.
	Logger *slog.Logger
	// shared reuses the process-wide pool for this worker set instead of
	// creating a private one (the FromSpec path).
	shared bool
}

// Remote is the coordinator-side solver backend: it serializes obligations
// and ships them to the worker pool, sharding by check key.
type Remote struct {
	pool        *pool
	ownsPool    bool
	fallback    solver.Backend
	budget      int64
	maxAttempts int
	backoff     time.Duration
	logger      *slog.Logger
	fingerprint string

	// spanCount bounds rpc spans per solve span (see maxRPCSpans); keyed by
	// parent span identity.
	spanMu    sync.Mutex
	spanCount map[*telemetry.Span]int
}

// New builds a Remote backend with a private pool (tests own its lifecycle
// via Close). Production paths go through FromSpec/solver.New, which share
// pools process-wide.
func New(cfg Config) (*Remote, error) {
	rec, logger := env()
	if cfg.Recorder != nil {
		rec = cfg.Recorder
	}
	if cfg.Logger != nil {
		logger = cfg.Logger
	}
	if cfg.Fallback == nil {
		cfg.Fallback = solver.Native(0)
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	maxAttempts := cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxAttempts
	}
	if n := len(cfg.Workers); maxAttempts > n && n > 0 {
		maxAttempts = n
	}

	var p *pool
	owns := false
	if len(cfg.Workers) > 0 {
		if cfg.shared {
			p = getPool(cfg.Workers, sharedClient, rec, cfg.ProbeInterval, int64(cfg.BreakerThreshold))
		} else {
			p = newPool(cfg.Workers, sharedClient, rec, cfg.ProbeInterval, int64(cfg.BreakerThreshold))
			owns = true
		}
	}
	return &Remote{
		pool:        p,
		ownsPool:    owns,
		fallback:    cfg.Fallback,
		budget:      cfg.Budget,
		maxAttempts: maxAttempts,
		backoff:     cfg.RetryBackoff,
		logger:      logger,
		fingerprint: fmt.Sprintf("remote:%s:%d", poolKey(cfg.Workers), cfg.Budget),
		spanCount:   map[*telemetry.Span]int{},
	}, nil
}

// FromSpec builds the Remote backend a spec describes, sharing the
// process-wide pool for its worker set. This is the solver.New path.
func FromSpec(s solver.Spec) (solver.Backend, error) {
	if len(s.Workers) == 0 {
		return nil, fmt.Errorf("fabric: remote spec has no workers (want \"remote:host1,host2\")")
	}
	return New(Config{Workers: s.Workers, Budget: s.Budget, shared: true})
}

// Close releases a privately owned pool's probe loop. Shared pools are
// process-lifetime and unaffected.
func (r *Remote) Close() {
	if r.ownsPool && r.pool != nil {
		r.pool.close()
	}
}

// Name implements solver.Backend.
func (r *Remote) Name() string { return solver.RemoteName }

// Fingerprint makes solver.SameConfig treat Remotes over the same fleet and
// budget as interchangeable.
func (r *Remote) Fingerprint() string { return r.fingerprint }

// Stats snapshots the backend's pool counters.
func (r *Remote) Stats() Stats {
	if r.pool == nil {
		return Stats{}
	}
	return r.pool.stats()
}

// Solve implements solver.Backend: encode, route by key, retry across ring
// successors, fall back locally when the fleet cannot answer.
func (r *Remote) Solve(ctx context.Context, ob *core.Obligation, b solver.Budget) solver.Outcome {
	if r.pool == nil {
		return r.fallbackSolve(ctx, ob, b, "pool")
	}
	if ob.Concrete() {
		// Originate checks are direct evaluations of a handful of concrete
		// routes; an RPC costs more than the check.
		return r.fallbackSolve(ctx, ob, b, "concrete")
	}
	wire, err := core.EncodeObligation(ob)
	if err != nil {
		// Not remotable (predicate/action outside the wire unions).
		if r.logger != nil {
			r.logger.Warn("fabric: obligation not remotable; solving locally", "key", ob.Key(), "err", err)
		}
		return r.fallbackSolve(ctx, ob, b, "encode")
	}
	budget := r.budget
	if budget <= 0 {
		budget = b.Conflicts
	}
	key := ob.Key()
	if key == "" {
		key = ob.Kind.String() + "|" + ob.Loc.String() + "|" + ob.Desc.String()
	}

	workers := r.pool.pick(key)
	if len(workers) > r.maxAttempts {
		workers = workers[:r.maxAttempts]
	}
	for i, w := range workers {
		if i > 0 {
			// Bounded exponential backoff between attempts, honoring ctx.
			d := r.backoff << (i - 1)
			select {
			case <-ctx.Done():
				return cancelledOutcome(ob)
			case <-time.After(d):
			}
			r.pool.retries.With(workers[i-1].addr).Inc()
		}
		out, err := r.solveOn(ctx, w, ob, wire, budget)
		if err == nil {
			if i > 0 {
				workers[0].retried.Add(1)
				r.pool.failovers.Add(1)
				r.pool.failoverC.Inc()
			}
			return out
		}
		var werr *WireError
		if errors.As(err, &werr) {
			// The worker answered but the body is garbage: typed error,
			// Unknown verdict, no retry — and no crash.
			if r.logger != nil {
				r.logger.Error("fabric: discarding malformed worker response", "worker", w.addr, "err", err)
			}
			return unknownOutcome(ob, err.Error())
		}
		if ctx.Err() != nil {
			return cancelledOutcome(ob)
		}
		if r.logger != nil {
			r.logger.Warn("fabric: solve attempt failed", "worker", w.addr, "attempt", i+1, "err", err)
		}
	}
	// Every shard refused: degrade to the local backend rather than failing
	// the job. The verdict stays correct; only locality is lost.
	return r.fallbackSolve(ctx, ob, b, "exhausted")
}

// solveOn performs one solve RPC against one worker.
func (r *Remote) solveOn(ctx context.Context, w *worker, ob *core.Obligation, wire *core.ObligationWire, budget int64) (solver.Outcome, error) {
	var out solver.Outcome
	body, err := json.Marshal(SolveRequest{Obligation: wire, Budget: budget})
	if err != nil {
		return out, &WireError{Worker: w.addr, Reason: fmt.Sprintf("encode request: %v", err)}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")

	span := r.startRPCSpan(ctx, w, ob)
	w.inflight.Add(1)
	t0 := time.Now()
	resp, err := r.pool.client.Do(req)
	elapsed := time.Since(t0)
	w.inflight.Add(-1)
	r.pool.rpcSeconds.With(w.addr).Observe(elapsed.Seconds())
	defer span.End()

	if err != nil {
		span.SetAttr("error", "transport")
		r.pool.noteFailure(w)
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		span.SetAttr("error", fmt.Sprintf("http %d", resp.StatusCode))
		// 4xx means this coordinator sent something the worker rejects
		// (version skew): retrying elsewhere may still work, but don't
		// punish the worker's breaker for our request.
		if resp.StatusCode >= 500 {
			r.pool.noteFailure(w)
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return out, fmt.Errorf("fabric: %s answered %s", w.addr, resp.Status)
	}

	var sr SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		r.pool.noteFailure(w)
		return out, &WireError{Worker: w.addr, Reason: fmt.Sprintf("decode: %v", err)}
	}
	cr, err := sr.Result.CheckResult()
	if err != nil {
		r.pool.noteFailure(w)
		return out, &WireError{Worker: w.addr, Reason: err.Error()}
	}
	r.pool.noteSuccess(w)
	w.solved.Add(1)
	r.pool.solvesC.With(w.addr, cr.Status.String()).Inc()

	// Stamp identity locally and record provenance: which fleet member and
	// which worker-side backend produced the verdict.
	cr.Kind = ob.Kind
	cr.Loc = ob.Loc
	cr.Desc = ob.Desc
	workerBackend := cr.Backend
	if workerBackend == "" {
		workerBackend = "native"
	}
	cr.Backend = solver.RemoteName + "(" + w.addr + ")/" + workerBackend
	span.SetAttr("worker", w.addr)
	span.SetAttr("status", cr.Status.String())

	out.CheckResult = cr
	out.Raced = sr.Raced
	out.Escalated = sr.Escalated
	return out, nil
}

// startRPCSpan opens a child span for the rpc leg under the solve span the
// engine put in ctx, bounded per parent so huge jobs don't flood the trace
// ring.
func (r *Remote) startRPCSpan(ctx context.Context, w *worker, ob *core.Obligation) *telemetry.Span {
	parent := telemetry.SpanFromContext(ctx)
	if parent == nil {
		return nil
	}
	r.spanMu.Lock()
	n := r.spanCount[parent]
	if n >= maxRPCSpans {
		r.spanMu.Unlock()
		return nil
	}
	r.spanCount[parent] = n + 1
	if len(r.spanCount) > 1024 {
		// Parents accumulate for the life of the backend; shed the map
		// wholesale once it grows silly (costs only span caps, not data).
		r.spanCount = map[*telemetry.Span]int{}
	}
	r.spanMu.Unlock()
	s := parent.StartSpan("rpc:" + w.addr)
	s.SetAttr("kind", ob.Kind.String())
	return s
}

func (r *Remote) fallbackSolve(ctx context.Context, ob *core.Obligation, b solver.Budget, reason string) solver.Outcome {
	if r.pool != nil {
		r.pool.fallbacks.Add(1)
		r.pool.fallbackC.With(reason).Inc()
	}
	out := r.fallback.Solve(ctx, ob, b)
	if reason != "concrete" && out.Backend != "" && !strings.HasPrefix(out.Backend, solver.RemoteName) {
		out.Backend = solver.RemoteName + "/fallback:" + out.Backend
	}
	return out
}

func unknownOutcome(ob *core.Obligation, note string) solver.Outcome {
	return solver.Outcome{CheckResult: core.CheckResult{
		Kind:           ob.Kind,
		Loc:            ob.Loc,
		Desc:           ob.Desc,
		Status:         core.StatusUnknown,
		Backend:        solver.RemoteName,
		Counterexample: &core.Counterexample{Note: note},
	}}
}

func cancelledOutcome(ob *core.Obligation) solver.Outcome {
	return unknownOutcome(ob, "solve cancelled (unknown)")
}
