// Command lyserve is the Lightyear verification service: an HTTP JSON API
// that runs verification jobs asynchronously on a shared internal/engine
// Engine, so concurrent requests dedup identical local checks and reuse the
// process-wide result cache.
//
// Usage:
//
//	lyserve [-addr :8080] [-workers N] [-cache N] [-store DIR]
//	        [-job-ttl 1h] [-session-ttl 24h] [-event-window N]
//	        [-max-inflight N] [-tenant-quota N] [-tenant-weights t1=3,t2=1]
//	        [-trace-cap N] [-pprof] [-solver backend[:budget]]
//
// With -store DIR the internal/store persistent journal in DIR sits behind
// the engine's in-memory result cache (-cache), so a redeployed lyserve
// serves previously solved checks without re-solving them. The store is
// keyed by check content alone, so every job and session shares it; it
// keeps every verdict that holds, with no retention bound. Completed jobs
// are garbage-collected -job-ttl after completion (default 1h); sessions
// idle longer than -session-ttl (default 24h; 0 disables) are expired and
// deleted — an update to an expired session is 404, like an explicit
// DELETE.
// -event-window N (default 4096) bounds the per-job event history retained
// for GET /v2/jobs/{id}/events replay: when a large plan emits more events
// than the window, the oldest are evicted and late subscribers receive a
// single {"type":"truncated","dropped":K} marker in their place.
//
// # Tenancy and admission control
//
// Every request runs as a tenant: the X-Tenant header, the ?tenant= query
// parameter, or the plan's {"options": {"tenant": ...}} field (in that
// precedence), defaulting to "default". The engine accounts each tenant's
// admitted, rejected, queued, and in-flight work (GET /v1/status →
// engine.tenants) and dispatches admitted workloads weighted-fair across
// tenants, so one tenant flooding the service cannot starve another.
//
// -max-inflight bounds the total in-flight checks across tenants and
// -tenant-quota the in-flight checks per tenant (each 0 = unlimited); every
// queued check is admitted under them. A plan is admitted as one unit —
// its compiled check count (plan.Compiled.Cost) is reserved up front — or
// answered synchronously with HTTP 429, a Retry-After header (seconds),
// and a JSON body carrying the tenant, cost, violated limit, and
// retry_after_ms; "permanent": true marks a plan whose cost exceeds the
// limit outright (split it or raise the limit). Session creation and
// migration plans are admitted the same way before they are queued, so a
// 202 (or a stream) means admitted; an update is admitted in the session
// worker once its diff sizes it, and a refusal fails that run. Session
// updates and deletion require the caller's tenant to match the session's
// (403 otherwise): mutations are charged to the session tenant's quota.
//
// # API — declarative verification plans
//
// The /v2 surface accepts internal/plan requests: one document composing a
// network source, a list of properties (each optionally scoped to routers
// or regions), and request options (wan_regions, solver, tenant, priority,
// results); the engine's workers, cache and store are this service's flags.
// All request bodies are capped at 1 MiB (413 beyond that) and decoded
// strictly: a field the schema lacks, such as "workers" or a misspelled
// "router", is a 400 that names it.
//
//	POST /v2/verify
//	    Body: a plan.Request, e.g.
//	      {"network":    {"generator": {"kind": "wan", "regions": 2}},
//	       "properties": [{"name": "wan-peering", "routers": ["edge-0"]},
//	                      {"name": "wan-ip-reuse"}],
//	       "options":    {"wan_regions": 2,
//	                      "solver": {"backend": "portfolio"}}}
//	    The network source is one of "config" (inline DSL), "generator",
//	    or "baseline" (a session id whose pinned network to verify).
//	    Returns 202 with {"id", "status_url", "events_url"}. All properties
//	    run as one plan on the shared engine, so checks shared across
//	    properties are solved once. The "results" option selects what the
//	    reports and the event stream carry: "failures" (the default) keeps
//	    every check that did not pass, in full, and counts the rest; "all"
//	    keeps every check. A finished job retains exactly what its reports
//	    carry — under the default, a summary per problem plus its failures. The optional "solver" option routes the
//	    request's checks to a solver backend ("native", "portfolio", or
//	    "tiered", optionally with a conflict "budget") — a per-job routing
//	    decision on the shared engine, so concurrent tenants may use
//	    different backends. Checks whose budget ran out report status
//	    "unknown", distinct from "fail".
//
//	GET /v2/jobs/{id}
//	    The job grouped per property: status, per-problem completion, and —
//	    once complete — each property's problem reports plus aggregated
//	    cache/dedup stats.
//
//	GET /v2/jobs/{id}/events
//	    NDJSON stream of the run's progress events: a "start" event per
//	    problem as it is submitted (with its check total), a "check" event
//	    per completed engine check that did not pass — per every check
//	    under "results": "all" — (with cache/dedup provenance and its
//	    ok/fail/unknown status), a "problem" event per finished problem
//	    (with its stats), a "property" summary event each, and a final
//	    "plan" event, after which the stream closes. Events already emitted
//	    are replayed first, so late subscribers see the full history (or,
//	    past the -event-window, a truncation marker followed by the
//	    retained suffix).
//
//	POST /v2/sessions
//	    Body: a plan.Request. Pins the request's network as an incremental
//	    session baseline and verifies the full (scoped) property list.
//	    Updates inherit the plan's properties and scoping.
//
//	POST /v2/sessions/{id}/update
//	    Body: {"network": <plan network source>}. Diffs the new network
//	    against the pinned state and re-solves only dirtied checks. A
//	    network with an empty diff (a comment-only config edit) finds every
//	    verdict retained, solves nothing and answers "unchanged": true;
//	    checks the pinned run left undecided are never retained, so they
//	    re-solve.
//
//	POST /v2/sessions/{id}/migrate
//	    Body: {"steps": [...], "unordered": bool, "search_budget": N} — a
//	    migration plan (internal/migrate) whose baseline, properties, and
//	    options are the session's. Each step is {"label", "config"} (a full
//	    replacement network) or {"label", "mutation"} (a serializable config
//	    edit applied to the previous state). The response is a synchronous
//	    NDJSON stream of step-indexed events (step_started, problem, check,
//	    step_ok, step_violated, order_found, order_infeasible, then done
//	    with the full result, or error): every intermediate state is
//	    verified as an incremental delta on the session's verifier, and the
//	    stream reports the first violating step with its failing checks and
//	    witnesses. With "unordered": true the steps are an unordered change
//	    set and the run searches for a safe ordering (events carry
//	    "search": true while exploring). The whole plan is admitted as one
//	    reservation up front (429 before the first step if over quota). On
//	    success the final state becomes the session's pinned baseline —
//	    follow-up updates delta against the migrated network; on violation,
//	    infeasibility, or error the original pinned state is restored. The
//	    plan also appears in the session's run history ("migrate": true,
//	    with its result) for later GETs.
//
//	GET /v2/sessions/{id}
//	    The session's pinned fingerprint, retained result count, and run
//	    history: every baseline, update, and migration with its status and
//	    delta accounting (dirty checks, reused results, solved).
//
//	DELETE /v2/sessions/{id}
//	    Deletes the session; queued runs are abandoned and their admission
//	    grants released.
//
// # Observability
//
// The service always runs with an internal/telemetry recorder: the engine,
// admission layer, solver backends, result cache, and persistent store all
// emit into it.
//
//	GET /metrics
//	    Prometheus text exposition (version 0.0.4): lightyear_* counters,
//	    histograms (solve time per backend, queue wait), and gauges
//	    (in-flight cost, queued workloads, cache occupancy and hit ratio,
//	    store journal size).
//
//	GET /v1/traces[?limit=N]
//	    The most recent completed workload traces, newest first, from the
//	    recorder's bounded ring (-trace-cap entries).
//
//	GET /v1/traces/{id}
//	    One completed trace as a span tree (compile, admit, queue,
//	    dispatch, solve:<backend>, cache, store), with per-span offsets,
//	    durations, and attributes.
//
// Every verification request is traced end to end: POST /v2/verify answers
// with an X-Trace-Id header (and a trace_id field in the 202 body and job
// snapshots), every NDJSON event of the run carries the same trace_id, and
// once the run completes the trace is retrievable at /v1/traces/{id}.
//
// -tenant-weights t1=3,t2=1 sets per-tenant weighted-fair dispatch weights
// (unlisted tenants weigh 1). -pprof additionally mounts the standard
// net/http/pprof handlers under /debug/pprof/ — off by default since the
// profiles can leak operational detail.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lightyear/internal/corpus"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/logging"
	"lightyear/internal/migrate"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
	"lightyear/internal/solver"
	"lightyear/internal/store"
	"lightyear/internal/telemetry"
	"lightyear/internal/topology"
)

// srvLog is the service's structured logger; main replaces it with the one
// -log-level/-log-format configure. The default routes through slog's
// process default so in-test servers still log somewhere sensible.
var srvLog = logging.Component(slog.Default(), "lyserve")

// defaultJobTTL is how long completed jobs stay queryable before GC.
const defaultJobTTL = time.Hour

// defaultSessionTTL is how long an idle session (no queued or running
// work, no recent run) survives before GC.
const defaultSessionTTL = 24 * time.Hour

// defaultEventWindow is the per-job event-history bound (-event-window).
const defaultEventWindow = 4096

// maxRequestBody caps every JSON request body read by the service.
const maxRequestBody = 1 << 20 // 1 MiB

// defaultShutdownGrace bounds how long a SIGINT/SIGTERM shutdown waits for
// in-flight requests (including NDJSON event streams) to drain.
const defaultShutdownGrace = 15 * time.Second

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		storeDir = flag.String("store", "", "persistent result-store directory, behind the in-memory cache")
		jobTTL   = flag.Duration("job-ttl", defaultJobTTL, "retention of completed jobs")
		sessTTL  = flag.Duration("session-ttl", defaultSessionTTL, "expiry of idle sessions (0 = never)")
		evWindow = flag.Int("event-window", defaultEventWindow, "per-job event-history entries retained for /events replay (<=0 = unbounded)")
		traceCap = flag.Int("trace-cap", 0, "completed traces retained for /v1/traces (0 = default)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		grace    = flag.Duration("shutdown-grace", defaultShutdownGrace, "max wait for in-flight requests to drain on SIGINT/SIGTERM")
	)
	engineOptions := engineFlags(flag.CommandLine)
	var logCfg logging.Config
	logCfg.RegisterFlags(flag.CommandLine, "json")
	flag.Parse()

	logger, err := logCfg.Build(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lyserve: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	srvLog = logging.Component(logger, "lyserve")

	rec := telemetry.New(*traceCap)
	// Corpus network sources (plan documents with "corpus") count their
	// generations into the same /metrics recorder.
	corpus.SetTelemetry(rec)
	opts, err := engineOptions()
	if err != nil {
		srvLog.Error("bad engine flag", slog.Any("error", err))
		os.Exit(1)
	}
	opts.Telemetry, opts.Logger = rec, logger
	if opts.Backend != nil {
		srvLog.Info("default solver backend", slog.String("solver", opts.Backend.Name()))
	}
	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir)
		if err != nil {
			srvLog.Error("store open failed", slog.String("dir", *storeDir), slog.Any("error", err))
			os.Exit(1)
		}
		st.SetTelemetry(rec)
		st.SetLogger(logger)
		srvLog.Info("store opened",
			slog.String("dir", *storeDir),
			slog.Int("results", st.Len()))
		opts.Cache = st
	}
	eng := engine.New(opts)
	srv := newServer(eng)
	srv.store = st
	srv.ttl = *jobTTL
	srv.sessionTTL = *sessTTL
	srv.eventWindow = *evWindow
	srv.pprof = *pprofOn
	go srv.janitor()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	srvLog.Info("listening",
		slog.String("addr", *addr),
		slog.String("engine", eng.String()),
		slog.String("suites", strings.Join(netgen.SuiteNames(), ", ")))

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections, wake
	// every NDJSON event stream so it flushes and closes, wait up to the
	// grace period for in-flight requests, then close every session and the
	// engine (draining admitted jobs) and flush the store journal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		srvLog.Error("server failed", slog.Any("error", err))
		os.Exit(1)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		srvLog.Info("shutdown signal received", slog.Duration("grace", *grace))
	}
	srv.beginShutdown()
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		srvLog.Warn("shutdown grace period expired with requests in flight", slog.Any("error", err))
	}
	srv.stop()
	if st != nil {
		if err := st.Close(); err != nil {
			srvLog.Warn("store close failed", slog.Any("error", err))
		}
	}
	srvLog.Info("shutdown complete")
}

// engineFlags registers the flags that configure the engine on fs and
// returns the function that builds engine.Options from their parsed values
// (the caller adds telemetry, logger and the -store cache).
func engineFlags(fs *flag.FlagSet) func() (engine.Options, error) {
	var (
		workers     = fs.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
		cacheSize   = fs.Int("cache", 0, "engine in-memory result-cache capacity (0 = default, <0 disables)")
		maxInflight = fs.Int("max-inflight", 0, "admission: max in-flight checks across all tenants (0 = unlimited)")
		tenantQuota = fs.Int("tenant-quota", 0, "admission: max in-flight checks per tenant (0 = unlimited)")
		weightsSpec = fs.String("tenant-weights", "", "per-tenant dispatch weights, e.g. t1=3,t2=1 (unlisted tenants weigh 1)")
		solverSpec  = fs.String("solver", "", "default solver backend: native, portfolio, or tiered as backend[:budget]")
	)
	return func() (engine.Options, error) {
		weights, err := engine.ParseWeights(*weightsSpec)
		if err != nil {
			return engine.Options{}, fmt.Errorf("-tenant-weights: %w", err)
		}
		opts := engine.Options{
			Workers:   *workers,
			CacheSize: *cacheSize,
			Admission: engine.Admission{
				MaxInFlightChecks: *maxInflight,
				PerTenantQuota:    *tenantQuota,
				Weights:           weights,
			},
		}
		if *solverSpec != "" {
			spec, err := solver.ParseSpec(*solverSpec)
			if err == nil {
				opts.Backend, err = solver.New(spec)
			}
			if err != nil {
				return engine.Options{}, fmt.Errorf("-solver: %w", err)
			}
		}
		return opts, nil
	}
}

// server owns the engine and the in-memory job and session tables.
type server struct {
	eng         *engine.Engine
	rec         *telemetry.Recorder // the engine's recorder; nil disables /metrics and traces
	store       *store.Store        // nil without -store; readiness probe and plan stats
	ttl         time.Duration       // completed-job retention
	sessionTTL  time.Duration       // idle-session expiry (0 = never)
	eventWindow int                 // per-job event-history bound (<=0 = unbounded)
	pprof       bool                // mount /debug/pprof/ handlers

	started time.Time // process start, for /v1/status uptime

	// shutdown is closed once when graceful shutdown begins: NDJSON event
	// streams flush and close, and the janitor exits.
	shutdown     chan struct{}
	shutdownOnce sync.Once

	mu       sync.Mutex
	seq      int
	jobs     map[string]*serviceJob
	sseq     int
	sessions map[string]*session
}

func newServer(eng *engine.Engine) *server {
	s := &server{
		eng:         eng,
		rec:         eng.Telemetry(),
		ttl:         defaultJobTTL,
		sessionTTL:  defaultSessionTTL,
		eventWindow: defaultEventWindow,
		started:     time.Now(),
		shutdown:    make(chan struct{}),
		jobs:        make(map[string]*serviceJob),
		sessions:    make(map[string]*session),
	}
	if s.rec != nil {
		s.rec.GaugeFunc("lightyear_jobs_retained_check_results",
			"Per-check results held by the reports of finished jobs awaiting -job-ttl.", nil,
			func() []telemetry.Sample {
				return []telemetry.Sample{{Value: float64(s.retainedCheckResults())}}
			})
	}
	return s
}

// retainedCheckResults counts the per-check entries the job table holds in
// finished jobs' reports — what -job-ttl retention costs beyond a summary.
func (s *server) retainedCheckResults() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		n += j.retainedChecks
		j.mu.Unlock()
	}
	return n
}

// beginShutdown signals every long-lived handler and the janitor that the
// process is draining. Safe to call more than once.
func (s *server) beginShutdown() {
	s.shutdownOnce.Do(func() { close(s.shutdown) })
}

// stop ends the server's work once its listener has shut down: it closes
// every session, failing the runs still queued there, and then the engine,
// which drains the jobs already admitted. A run executing meanwhile
// finishes on its session's worker; a problem it had not yet submitted when
// the engine closed records engine.ErrClosed as its failure.
func (s *server) stop() {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.close("server shutting down")
	}
	s.eng.Close()
}

// requestTenant resolves the tenant a request runs as: the X-Tenant
// header, then the ?tenant= query parameter, then the tenant named in the
// request body (a plan's options), then the engine default. The transport
// identity wins over the body so a gateway-asserted header cannot be
// overridden by request content.
func requestTenant(r *http.Request, bodyTenant string) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	if bodyTenant != "" {
		return bodyTenant
	}
	return engine.DefaultTenant
}

// admissionError answers an engine admission rejection as HTTP 429 with a
// Retry-After header (whole seconds, rounded up) and a JSON body carrying
// the typed fields, then reports true. Non-admission errors report false.
func admissionError(w http.ResponseWriter, err error) bool {
	var adm *engine.ErrAdmission
	if !errors.As(err, &adm) {
		return false
	}
	secs := int(adm.RetryAfter.Seconds())
	if adm.RetryAfter > time.Duration(secs)*time.Second {
		secs++ // round up so clients never retry early
	}
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	body := map[string]any{
		"error":          adm.Error(),
		"tenant":         adm.Tenant,
		"cost":           adm.Cost,
		"limit":          adm.Limit,
		"reason":         adm.Reason,
		"retry_after_ms": adm.RetryAfter.Milliseconds(),
	}
	if adm.Permanent {
		// The cost exceeds the limit outright: retrying at this cost can
		// never succeed — clients should split the request, not back off.
		body["permanent"] = true
	}
	json.NewEncoder(w).Encode(body)
	return true
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)

	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/status", s.handleStatus)

	mux.HandleFunc("POST /v2/verify", s.handleVerifyV2)
	mux.HandleFunc("GET /v2/jobs/{id}", s.handleJobV2)
	mux.HandleFunc("GET /v2/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("POST /v2/sessions", s.handleSessionCreateV2)
	mux.HandleFunc("POST /v2/sessions/{id}/update", s.handleSessionUpdateV2)
	mux.HandleFunc("POST /v2/sessions/{id}/migrate", s.handleSessionMigrate)
	mux.HandleFunc("GET /v2/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /v2/sessions/{id}", s.handleSessionDelete)

	if s.pprof {
		// Opt-in: profiles expose operational detail, so the handlers are
		// mounted only under -pprof.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleMetrics serves the Prometheus text exposition of the process
// recorder.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		httpError(w, http.StatusNotFound, "telemetry disabled")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.rec.WriteMetrics(w); err != nil {
		srvLog.Warn("write metrics failed", slog.Any("error", err))
	}
}

// handleTraces serves the recorder's retained completed traces, newest
// first; ?limit=N caps the count.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		httpError(w, http.StatusNotFound, "telemetry disabled")
		return
	}
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	traces := s.rec.Traces(limit)
	writeJSON(w, map[string]any{"count": len(traces), "traces": traces})
}

// handleTrace serves one completed trace by ID (the X-Trace-Id a verify
// request answered with).
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		httpError(w, http.StatusNotFound, "telemetry disabled")
		return
	}
	snap, ok := s.rec.Trace(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such trace (not finished yet, or evicted from the ring)")
		return
	}
	writeJSON(w, snap)
}

// decodeBody decodes a JSON request body capped at maxRequestBody, strictly
// (plan.Decode), answering 413 for oversized bodies and 400 for malformed
// ones — a field the body's schema lacks included, named in the answer.
// Returns false when the request has been answered.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	if err := plan.Decode(r.Body, v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		}
		return false
	}
	return true
}

// rejectConfigPath enforces the service's filesystem boundary: plan network
// sources may name server-local files only through the CLI, never over
// HTTP (a remote config_path would let callers probe and partially read
// any server-readable file via echoed parse errors). Answers 400 and
// returns false when the source uses config_path.
func rejectConfigPath(w http.ResponseWriter, ns plan.Network) bool {
	if ns.ConfigPath != "" {
		httpError(w, http.StatusBadRequest,
			"config_path is not supported over HTTP; inline the configuration as \"config\"")
		return false
	}
	return true
}

// ResolveBaseline implements plan.Resolver: a "baseline" network reference
// names a session whose pinned state becomes the plan's network, verified
// under the session's WAN region count unless the plan overrides it.
func (s *server) ResolveBaseline(ref string) (*topology.Network, int, error) {
	s.mu.Lock()
	sess, ok := s.sessions[ref]
	s.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("baseline %q names no live session", ref)
	}
	n := sess.verifier.PinnedNetwork()
	if n == nil {
		return nil, 0, fmt.Errorf("session %q has not pinned a baseline yet", ref)
	}
	return n, sess.plan.Params.Regions, nil
}

// janitor periodically drops completed jobs older than the job TTL and
// sessions idle longer than the session TTL. It runs for the life of the
// process; the sweep interval tracks the shorter of the two TTLs so a
// tight -session-ttl is honored even under the default hour-long -job-ttl.
func (s *server) janitor() {
	interval := s.ttl / 10
	if s.sessionTTL > 0 && s.sessionTTL/10 < interval {
		interval = s.sessionTTL / 10
	}
	if interval < time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case now := <-tick.C:
			s.gc(now)
		case <-s.shutdown:
			return
		}
	}
}

// gc removes jobs that completed before now-jobTTL, and expires sessions
// whose last activity (creation, queued update, or completed run) is older
// than now-sessionTTL. Running jobs and sessions with queued or running
// work are never collected. Returns jobs removed + sessions expired.
func (s *server) gc(now time.Time) int {
	cutoff := now.Add(-s.ttl)
	s.mu.Lock()
	removed := 0
	for id, j := range s.jobs {
		if done, at := j.doneAt(); done && at.Before(cutoff) {
			delete(s.jobs, id)
			removed++
		}
	}
	var expired []*session
	if s.sessionTTL > 0 {
		sessCutoff := now.Add(-s.sessionTTL)
		for id, sess := range s.sessions {
			// expireIfIdle marks the session closed atomically with the
			// idleness check, so an update racing this sweep either lands
			// before it (the session is no longer idle and survives) or is
			// refused by launch() — never accepted and then dropped.
			if sess.expireIfIdle(sessCutoff) {
				delete(s.sessions, id)
				expired = append(expired, sess)
			}
		}
	}
	s.mu.Unlock()
	for _, sess := range expired {
		sess.close("session expired") // releases the worker; closed was already set
		srvLog.Info("session expired",
			slog.String("session", sess.id),
			slog.String(logging.KeyTenant, sess.tenant),
			slog.Duration("idle_beyond", s.sessionTTL))
	}
	return removed + len(expired)
}

// serviceJob is one verification request running as a plan: per-property,
// per-problem state updated from the run's event stream, the ordered event
// log served by GET /v2/jobs/{id}/events, and the final result.
type serviceJob struct {
	id      string
	label   string // the plan's property list
	tenant  string // tenant the plan was admitted under
	cost    int    // admission cost (the plan's compiled check count)
	traceID string // the run's telemetry trace ("" without a recorder)
	created time.Time
	window  int // event-history bound (<=0 = unbounded)

	mu       sync.Mutex
	props    []*propertyState
	events   []plan.Event
	dropped  int           // events evicted from the front of the history
	notify   chan struct{} // non-nil while a subscriber waits; closed on the next change
	finished bool
	done     time.Time
	errMsg   string // run error (admission race); job reports failed
	// result is the run's summary: finish moves every problem's report into
	// problemState.report in wire form — strings only — so a retained job
	// pins neither the plan nor its network, obligations or predicates.
	result         *plan.Result
	retainedChecks int // per-check entries across the retained reports
}

// changed returns a channel closed at the job's next change. The channel is
// made only when a subscriber asks for one, so a job nobody streams wakes
// nobody and allocates nothing per event. j.mu is held.
func (j *serviceJob) changed() <-chan struct{} {
	if j.notify == nil {
		j.notify = make(chan struct{})
	}
	return j.notify
}

// wake releases the subscribers waiting on changed. j.mu is held.
func (j *serviceJob) wake() {
	if j.notify != nil {
		close(j.notify)
		j.notify = nil
	}
}

type propertyState struct {
	property plan.Property
	problems []*problemState
}

type problemState struct {
	name       string
	total      int
	completed  int
	skipped    bool   // optional problem not applicable to this network
	failed     bool   // problem could not be submitted; fails the job
	skipReason string // reason for skipped or failed
	report     *engine.ReportJSON
	stats      *engine.JobStats
}

// doneAt reports whether the job has completed and when.
func (j *serviceJob) doneAt() (bool, time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished, j.done
}

// launchPlan registers a job for the compiled plan — already admitted via
// resv, which the run takes ownership of — and starts it on the shared
// engine. tr is the trace the handler opened for the request (nil without
// a recorder); the run records into it and finishes it.
func (s *server) launchPlan(c *plan.Compiled, resv *engine.Reservation, tr *telemetry.Trace) *serviceJob {
	j := &serviceJob{
		label:   c.Label(),
		tenant:  engine.NormalizeTenant(c.Tenant()),
		cost:    c.Cost(),
		traceID: tr.ID(),
		created: time.Now(),
		window:  s.eventWindow,
	}
	for _, u := range c.Units {
		ps := &propertyState{property: u.Property}
		for _, p := range u.Problems {
			ps.problems = append(ps.problems, &problemState{name: p.Name})
		}
		j.props = append(j.props, ps)
	}
	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("job-%d", s.seq)
	s.jobs[j.id] = j
	s.mu.Unlock()

	go func() {
		res, err := plan.Run(s.eng, c, plan.RunConfig{Sink: j.handleEvent, Store: s.store, Reservation: resv, Trace: tr})
		errMsg := ""
		if err != nil {
			// The handler reserved admission for the whole plan, so Run
			// has nothing left to refuse; record defensively rather than
			// wedge the job.
			srvLog.Error("plan run failed",
				slog.String(logging.KeyJob, j.id),
				slog.String(logging.KeyTenant, j.tenant),
				slog.String(logging.KeyTraceID, j.traceID),
				slog.Any("error", err))
			errMsg = err.Error()
			res = &plan.Result{}
		}
		j.mu.Lock()
		j.finish(res)
		j.errMsg = errMsg
		j.wake()
		j.mu.Unlock()
	}()
	return j
}

// handleEvent is the plan.Run sink: it appends the event to the replay log,
// folds it into the per-problem state, and wakes streaming watchers. Calls
// are serialized by plan.Run.
func (j *serviceJob) handleEvent(ev plan.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ev.Type == "start" || ev.Type == "check" || ev.Type == "problem" {
		if ev.Prop < len(j.props) && ev.Idx < len(j.props[ev.Prop].problems) {
			ps := j.props[ev.Prop].problems[ev.Idx]
			switch ev.Type {
			case "start":
				ps.total = ev.Total
			case "check":
				// Only checks that did not pass are reported under the default
				// results mode, so progress moves in jumps; it never moves back.
				ps.completed, ps.total = max(ps.completed, ev.Completed), ev.Total
			case "problem":
				ps.skipped, ps.failed, ps.skipReason = ev.Skipped, ev.Failed, ev.Reason
				if ev.Stats != nil {
					ps.stats = ev.Stats
					ps.completed, ps.total = ev.Stats.Checks, ev.Stats.Checks
				}
			}
		}
	}
	j.events = append(j.events, ev)
	if j.window > 0 && len(j.events) > j.window {
		// Bound the replay history: evict the oldest events and remember how
		// many, so late subscribers get a truncation marker instead of the
		// missing prefix. Live subscribers past the eviction point are
		// unaffected (their cursor is absolute).
		evict := len(j.events) - j.window
		j.events = j.events[evict:]
		j.dropped += evict
	}
	j.wake()
}

// finish records the run's result: every problem's report moves into the
// snapshot state in wire form and the result keeps the summary. j.mu is held.
func (j *serviceJob) finish(res *plan.Result) {
	for pi := range res.Properties {
		for i := range res.Properties[pi].Problems {
			p := &res.Properties[pi].Problems[i]
			if enc := p.EncodeReport(); enc != nil && pi < len(j.props) && i < len(j.props[pi].problems) {
				j.props[pi].problems[i].report = enc
				j.retainedChecks += len(enc.Checks)
			}
			p.Report = nil
		}
	}
	j.result, j.finished, j.done = res, true, time.Now()
}

// reservePlan admits the compiled plan as one unit against the engine,
// answering 429 + Retry-After on rejection. The caller owns the returned
// reservation (plan.Run releases it).
func (s *server) reservePlan(w http.ResponseWriter, c *plan.Compiled) (*engine.Reservation, bool) {
	resv, err := s.eng.Reserve(c.Tenant(), c.Cost())
	if err != nil {
		if !admissionError(w, err) {
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return nil, false
	}
	return resv, true
}

// startRequestTrace opens the request's end-to-end trace on the process
// recorder (nil without one) and runs fn — the compilation step — under a
// "compile" span. The trace ID is handed back to the client before the
// asynchronous run starts.
func (s *server) startRequestTrace(label, tenant string, fn func() bool) (*telemetry.Trace, bool) {
	tr := s.rec.StartTrace(label, engine.NormalizeTenant(tenant))
	cs := tr.StartSpan("compile")
	ok := fn()
	if !ok {
		cs.SetAttr("error", "true")
	}
	cs.End()
	if !ok {
		tr.Finish()
	}
	return tr, ok
}

// admitTraced wraps the plan reservation in an "admit" span; a rejected
// plan's trace is finished here with the rejection recorded.
func (s *server) admitTraced(w http.ResponseWriter, c *plan.Compiled, tr *telemetry.Trace) (*engine.Reservation, bool) {
	as := tr.StartSpan("admit")
	as.SetAttrInt("cost", int64(c.Cost()))
	resv, ok := s.reservePlan(w, c)
	if !ok {
		as.SetAttr("rejected", "true")
	}
	as.End()
	if !ok {
		tr.Finish()
	}
	return resv, ok
}

// accepted answers 202 with the job's URLs and trace ID, echoing the trace
// in an X-Trace-Id header.
func accepted(w http.ResponseWriter, j *serviceJob) {
	body := map[string]string{
		"id":         j.id,
		"status_url": "/v2/jobs/" + j.id,
		"events_url": "/v2/jobs/" + j.id + "/events",
	}
	if j.traceID != "" {
		body["trace_id"] = j.traceID
		w.Header().Set("X-Trace-Id", j.traceID)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(body)
}

func (s *server) handleVerifyV2(w http.ResponseWriter, r *http.Request) {
	var req plan.Request
	if !decodeBody(w, r, &req) {
		return
	}
	if !rejectConfigPath(w, req.Network) {
		return
	}
	req.Options.Tenant = requestTenant(r, req.Options.Tenant)
	var c *plan.Compiled
	tr, ok := s.startRequestTrace("plan", req.Options.Tenant, func() bool {
		var err error
		c, err = plan.Compile(req, s)
		if err != nil {
			httpError(w, http.StatusBadRequest, strings.TrimPrefix(err.Error(), "plan: "))
			return false
		}
		return true
	})
	if !ok {
		return
	}
	tr.SetLabel(c.Label())
	resv, ok := s.admitTraced(w, c, tr)
	if !ok {
		return
	}
	accepted(w, s.launchPlan(c, resv, tr))
}

type problemStatusJS struct {
	Name       string             `json:"name"`
	Status     string             `json:"status"` // running | done | skipped | failed
	Completed  int                `json:"completed"`
	Total      int                `json:"total"`
	SkipReason string             `json:"skip_reason,omitempty"`
	Report     *engine.ReportJSON `json:"report,omitempty"`
	Stats      *engine.JobStats   `json:"stats,omitempty"`
}

func (ps *problemState) statusJS() problemStatusJS {
	st := problemStatusJS{
		Name:       ps.name,
		Completed:  ps.completed,
		Total:      ps.total,
		SkipReason: ps.skipReason,
		Report:     ps.report,
		Stats:      ps.stats,
	}
	switch {
	case ps.failed:
		st.Status = "failed"
	case ps.skipped:
		st.Status = "skipped"
	case ps.stats != nil:
		st.Status = "done"
	default:
		st.Status = "running"
	}
	return st
}

// jobV2JSON is the GET /v2/jobs/{id} response: the plan view, grouped per
// property.
type jobV2JSON struct {
	ID         string             `json:"id"`
	Label      string             `json:"label"`
	Tenant     string             `json:"tenant,omitempty"`
	TraceID    string             `json:"trace_id,omitempty"`
	Cost       int                `json:"cost,omitempty"` // admitted check count
	Status     string             `json:"status"`         // running | done
	OK         *bool              `json:"ok,omitempty"`
	Error      string             `json:"error,omitempty"`
	Created    time.Time          `json:"created"`
	Properties []propertyStatusJS `json:"properties"`
	Engine     *engine.Stats      `json:"engine,omitempty"`
}

type propertyStatusJS struct {
	Property plan.Property     `json:"property"`
	OK       *bool             `json:"ok,omitempty"`
	Stats    *engine.JobStats  `json:"stats,omitempty"`
	Problems []problemStatusJS `json:"problems"`
}

func (j *serviceJob) snapshotV2() jobV2JSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := jobV2JSON{ID: j.id, Label: j.label, Tenant: j.tenant, TraceID: j.traceID,
		Cost: j.cost, Error: j.errMsg, Created: j.created, Status: "running"}
	for pi, prop := range j.props {
		ps := propertyStatusJS{Property: prop.property}
		for _, pb := range prop.problems {
			ps.Problems = append(ps.Problems, pb.statusJS())
		}
		if j.result != nil && pi < len(j.result.Properties) {
			pr := j.result.Properties[pi]
			ok := pr.OK
			st := pr.Stats
			ps.OK, ps.Stats = &ok, &st
		}
		out.Properties = append(out.Properties, ps)
	}
	if j.finished {
		out.Status = "done"
		if j.result != nil {
			ok := j.result.OK
			out.OK = &ok
			eng := j.result.Engine
			out.Engine = &eng
		}
	}
	return out
}

func (s *server) lookupJob(w http.ResponseWriter, r *http.Request) (*serviceJob, bool) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return nil, false
	}
	return j, true
}

func (s *server) handleJobV2(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		writeJSON(w, j.snapshotV2())
	}
}

// handleJobEvents streams the job's plan events as NDJSON: the retained
// history so far, then live events until the final "plan" event closes the
// stream. The cursor is an absolute event index; when the job's bounded
// history (-event-window) has already evicted events the subscriber has not
// seen, a single {"type":"truncated","dropped":K} marker is emitted in
// their place.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	idx := 0 // absolute index of the next event to deliver
	for {
		j.mu.Lock()
		gap := 0
		if idx < j.dropped {
			gap = j.dropped - idx
			idx = j.dropped
		}
		pendingEvents := j.events[idx-j.dropped:] // elements are immutable once appended
		notify := j.changed()
		finished := j.finished
		j.mu.Unlock()

		if gap > 0 {
			marker := plan.Event{Type: "truncated", Dropped: gap,
				Reason: "event window exceeded; earlier events evicted"}
			if err := enc.Encode(marker); err != nil {
				return
			}
		}
		for _, ev := range pendingEvents {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		idx += len(pendingEvents)
		if (gap > 0 || len(pendingEvents) > 0) && canFlush {
			flusher.Flush()
		}
		// finished and events were read under one lock hold: once finished,
		// the log is complete, and everything up to idx has been delivered.
		if finished {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			// Graceful shutdown: everything retained so far has been
			// delivered and flushed above; close the stream so
			// http.Server.Shutdown can finish draining connections.
			return
		}
	}
}

// session is one incremental verification session: a pinned delta.Verifier
// plus the history of runs applied to it. A single worker goroutine drains
// the queue, so runs execute in submission order while the HTTP handlers
// stay asynchronous.
type session struct {
	id      string
	label   string         // the plan's property list
	tenant  string         // tenant every run of this session is admitted under
	plan    *plan.Compiled // the pinned plan; updates re-validate scopes against it
	created time.Time

	verifier *delta.Verifier
	wake     chan struct{}

	mu         sync.Mutex
	runs       []*sessionRun
	queue      []*queuedRun
	running    int       // runs dequeued by the worker but not yet recorded
	lastActive time.Time // last launch or run completion
	closed     bool      // session deleted: worker exits, launches are refused
}

// expireIfIdle closes the session if it has been idle (no queued or
// running work) since before cutoff, reporting whether it expired. The
// close decision is made under sess.mu together with the idleness check,
// so launch() can never enqueue a run into a session the GC is about to
// drop — a racing update is either observed here (the session survives) or
// refused with 404 by launch() seeing closed.
func (sess *session) expireIfIdle(cutoff time.Time) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed || len(sess.queue) > 0 || sess.running > 0 || !sess.lastActive.Before(cutoff) {
		return false
	}
	sess.closed = true
	sess.queue = nil
	return true
}

// queuedRun is one pending baseline, update or migration: fn executes it
// and returns what the run records. abandon, when set, is what close()
// invokes instead if the session is deleted first (exactly once: close and
// the worker's dequeue exclude each other) to release the run's grant.
type queuedRun struct {
	run     *sessionRun
	fn      func() (*delta.Result, *migrate.Result, error)
	abandon func()
}

// sessionRun is one baseline, update, or migration plan applied to a
// session.
type sessionRun struct {
	seq       int
	submitted time.Time
	baseline  bool
	migrate   bool

	status        string // running | done | failed
	errMsg        string
	result        *delta.Result
	migrateResult *migrate.Result
}

// createSession registers and starts a session whose problem source is the
// compiled plan, pinning c.Network as the baseline. The baseline is
// reserved here, like a /v2/verify plan, and the grant handed to its run:
// a 202 means it is admitted. Updates reserve in the session worker, once
// the diff has sized them.
func (s *server) createSession(w http.ResponseWriter, c *plan.Compiled) {
	resv, ok := s.reservePlan(w, c)
	if !ok {
		return
	}
	sess := &session{
		label:      c.Label(),
		tenant:     engine.NormalizeTenant(c.Tenant()),
		plan:       c,
		created:    time.Now(),
		lastActive: time.Now(),
		verifier:   delta.NewVerifierFor(s.eng, c),
		wake:       make(chan struct{}, 1),
	}
	// The request's tenant, priority, and solver backend follow the
	// session: every incremental update's dirty subset is admitted under
	// the session's tenant and solves on the backend the plan selected.
	sess.verifier.SetWorkload(c.Workload())
	go sess.worker()
	// Queued before the session is published, so no DELETE can refuse it:
	// the baseline run, or its abandon hook, releases the grant.
	sess.launch(&sessionRun{baseline: true}, func() (*delta.Result, *migrate.Result, error) {
		sess.verifier.SetReservation(resv)
		defer resv.Release()
		defer sess.verifier.SetReservation(nil)
		res, err := sess.verifier.Baseline(c.Network)
		return res, nil, err
	}, resv.Release)
	s.mu.Lock()
	s.sseq++
	sess.id = fmt.Sprintf("session-%d", s.sseq)
	s.sessions[sess.id] = sess
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{
		"id":         sess.id,
		"status_url": "/v2/sessions/" + sess.id,
	})
}

func (s *server) handleSessionCreateV2(w http.ResponseWriter, r *http.Request) {
	var req plan.Request
	if !decodeBody(w, r, &req) {
		return
	}
	if !rejectConfigPath(w, req.Network) {
		return
	}
	req.Options.Tenant = requestTenant(r, req.Options.Tenant)
	c, err := plan.Compile(req, s)
	if err != nil {
		httpError(w, http.StatusBadRequest, strings.TrimPrefix(err.Error(), "plan: "))
		return
	}
	s.createSession(w, c)
}

func (s *server) lookupSession(w http.ResponseWriter, r *http.Request) (*session, bool) {
	s.mu.Lock()
	sess, ok := s.sessions[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return nil, false
	}
	return sess, true
}

// sessionTenantAllowed enforces the session's tenant on mutating session
// endpoints: updates run under — and are charged to — the session's
// tenant, so a caller presenting a different identity may not consume that
// quota (or delete the session). The identity is resolved through the same
// channels as creation (X-Tenant header, ?tenant= query, then the request
// body's tenant field), so a session created via the body's tenant option
// remains mutable by its creator. Answers 403 and reports false on
// mismatch.
func sessionTenantAllowed(w http.ResponseWriter, r *http.Request, sess *session, bodyTenant string) bool {
	if engine.NormalizeTenant(requestTenant(r, bodyTenant)) != sess.tenant {
		httpError(w, http.StatusForbidden, "session belongs to a different tenant")
		return false
	}
	return true
}

// launchUpdate queues a materialized network as a session update and
// answers 202.
func launchUpdate(w http.ResponseWriter, sess *session, n *topology.Network) {
	run := sess.launch(&sessionRun{}, func() (*delta.Result, *migrate.Result, error) {
		res, err := sess.verifier.Update(n)
		return res, nil, err
	}, nil)
	if run == nil {
		httpError(w, http.StatusNotFound, "session deleted")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{
		"id":         sess.id,
		"update":     run.seq,
		"status_url": "/v2/sessions/" + sess.id,
	})
}

// sessionUpdateV2 is the POST /v2/sessions/{id}/update body: a new network
// state for the session's pinned plan, plus (optionally) the caller's
// tenant when it is not asserted via header or query.
type sessionUpdateV2 struct {
	Network plan.Network `json:"network"`
	Tenant  string       `json:"tenant,omitempty"`
}

func (s *server) handleSessionUpdateV2(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	var req sessionUpdateV2
	if !decodeBody(w, r, &req) {
		return
	}
	if !sessionTenantAllowed(w, r, sess, req.Tenant) {
		return
	}
	if !rejectConfigPath(w, req.Network) {
		return
	}
	n, _, err := req.Network.Materialize(s)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The pinned plan's scopes must still select real routers on the new
	// state, or the incremental run would silently verify a smaller —
	// possibly empty — problem set.
	if err := sess.plan.ValidateScopes(n); err != nil {
		httpError(w, http.StatusBadRequest, strings.TrimPrefix(err.Error(), "plan: "))
		return
	}
	launchUpdate(w, sess, n)
}

// sessionMigrateV2 is the POST /v2/sessions/{id}/migrate body: a migration
// plan's step list (the session pins the baseline, properties, and
// options), plus the search controls and optionally the caller's tenant. A
// body naming the network or properties is refused as it decodes.
type sessionMigrateV2 struct {
	Steps        []migrate.Step `json:"steps"`
	Unordered    bool           `json:"unordered,omitempty"`
	SearchBudget int            `json:"search_budget,omitempty"`
	Tenant       string         `json:"tenant,omitempty"`
}

// handleSessionMigrate verifies a migration plan against the session's
// pinned baseline and streams its step-indexed events as NDJSON. Unlike
// updates (202 + poll), the response is the run: migration is a deployment
// gate, and the caller wants the first violating step the moment it is
// found. The plan executes on the session worker — strictly ordered with
// the session's other runs — while this handler relays its events; a
// disconnecting client does not abort the plan (the session must end on a
// verified state, pinned or rolled back, not mid-sequence).
func (s *server) handleSessionMigrate(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	var req sessionMigrateV2
	if !decodeBody(w, r, &req) {
		return
	}
	if !sessionTenantAllowed(w, r, sess, req.Tenant) {
		return
	}
	var c *migrate.Compiled
	var cerr error
	tr, ok := s.startRequestTrace("migrate:"+sess.label, sess.tenant, func() bool {
		c, cerr = migrate.CompileSteps(migrate.Plan{
			Steps:        req.Steps,
			Unordered:    req.Unordered,
			SearchBudget: req.SearchBudget,
		}, sess.plan)
		return cerr == nil
	})
	if !ok {
		httpError(w, http.StatusBadRequest, strings.TrimPrefix(cerr.Error(), "plan: "))
		return
	}
	// Whole-plan admission, decided before the stream opens: every step
	// re-solves at most the plan's full per-state cost, and the steps run
	// sequentially, so one reservation covers the entire sequence. An
	// over-quota migration is a clean 429 here, never a failure mid-plan.
	resv, ok := s.admitTraced(w, sess.plan, tr)
	if !ok {
		return
	}

	events := make(chan migrate.Event, 256)
	clientGone := make(chan struct{})
	run := sess.launch(&sessionRun{migrate: true}, func() (*delta.Result, *migrate.Result, error) {
		defer close(events)
		defer tr.Finish()
		res, err := migrate.Run(context.Background(), s.eng, c, migrate.RunConfig{
			Verifier:    sess.verifier,
			Reservation: resv, // released by Run
			Recorder:    s.rec,
			Trace:       tr,
			Sink: func(ev migrate.Event) {
				select {
				case events <- ev:
				case <-clientGone:
					// Client disconnected; keep running, drop the event.
				}
			},
		})
		if err != nil {
			select {
			case events <- migrate.Event{Type: migrate.EvError, Step: -1, PlanStep: -1, Reason: err.Error()}:
			case <-clientGone:
			}
		}
		return nil, res, err
	}, func() {
		// Session deleted while the plan was queued: nothing ran, nothing
		// was reserved beyond the admission we took — hand it back and end
		// the stream.
		resv.Release()
		tr.Finish()
		close(events)
	})
	if run == nil {
		resv.Release()
		tr.Finish()
		httpError(w, http.StatusNotFound, "session deleted")
		return
	}

	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	if id := tr.ID(); id != "" {
		w.Header().Set("X-Trace-Id", id)
	}
	w.WriteHeader(http.StatusOK)
	defer close(clientGone)
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, open := <-events:
			if !open {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			// Everything emitted so far has been flushed; the plan itself
			// finishes on the session worker.
			return
		}
	}
}

// launch enqueues run (see queuedRun for fn and abandon) and returns it;
// the session worker executes runs one at a time in submission order (seq
// and queue position are assigned under one lock hold, so they agree).
// Returns nil if the session is deleted; the caller then keeps what
// abandon would have released.
func (sess *session) launch(run *sessionRun, fn func() (*delta.Result, *migrate.Result, error), abandon func()) *sessionRun {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return nil
	}
	run.seq, run.submitted, run.status = len(sess.runs), time.Now(), "running"
	sess.runs = append(sess.runs, run)
	sess.queue = append(sess.queue, &queuedRun{run: run, fn: fn, abandon: abandon})
	sess.lastActive = time.Now()
	sess.mu.Unlock()
	select {
	case sess.wake <- struct{}{}:
	default: // worker already signaled
	}
	return run
}

// close marks the session deleted and releases its worker. Queued runs are
// abandoned through their abandon hooks and recorded as failed for reason.
// The queue is swapped out under sess.mu — the worker dequeues under the
// same lock, so an entry is either abandoned here or executed there, never
// both.
func (sess *session) close(reason string) {
	sess.mu.Lock()
	sess.closed = true
	abandoned := sess.queue
	sess.queue = nil
	for _, q := range abandoned {
		q.run.status, q.run.errMsg = "failed", reason
	}
	sess.mu.Unlock()
	for _, q := range abandoned {
		if q.abandon != nil {
			q.abandon()
		}
	}
	select {
	case sess.wake <- struct{}{}:
	default:
	}
}

// worker drains the session's run queue until the session is deleted.
func (sess *session) worker() {
	for range sess.wake {
		for {
			sess.mu.Lock()
			if sess.closed {
				sess.mu.Unlock()
				return
			}
			if len(sess.queue) == 0 {
				sess.mu.Unlock()
				break
			}
			q := sess.queue[0]
			sess.queue = sess.queue[1:]
			sess.running++
			sess.mu.Unlock()

			res, mres, err := q.fn()
			if mres != nil { // a copy: the migration's last event may still be encoding it
				m := *mres
				m.Baseline, mres = withoutReports(m.Baseline), &m
			}
			sess.mu.Lock()
			q.run.result, q.run.migrateResult = withoutReports(res), mres
			if err != nil {
				// Includes admission rejections of updates: the run's dirty
				// subset was reserved under the session's tenant and refused.
				// The error (with its retry hint) is the run's recorded status.
				q.run.status = "failed"
				q.run.errMsg = err.Error()
			} else {
				q.run.status = "done"
			}
			sess.running--
			sess.lastActive = time.Now()
			sess.mu.Unlock()
		}
	}
}

// withoutReports returns a copy of res without its problems' reports: no
// response encodes them, and a session records every run for its life. res
// itself is left as it is, for whoever else still reads it (a migration's
// events encode its baseline).
func withoutReports(res *delta.Result) *delta.Result {
	if res == nil {
		return nil
	}
	out := *res
	out.Problems = slices.Clone(res.Problems)
	for i := range out.Problems {
		out.Problems[i].Report = nil
	}
	return &out
}

// sessionJSON is the GET /v2/sessions/{id} response.
type sessionJSON struct {
	ID          string           `json:"id"`
	Suite       string           `json:"suite"`
	Tenant      string           `json:"tenant,omitempty"`
	Created     time.Time        `json:"created"`
	Fingerprint string           `json:"fingerprint,omitempty"` // pinned network state
	Results     int              `json:"retained_results"`
	Runs        []sessionRunJSON `json:"runs"`
}

type sessionRunJSON struct {
	Seq       int             `json:"seq"`
	Submitted time.Time       `json:"submitted"`
	Baseline  bool            `json:"baseline"`
	Migrate   bool            `json:"migrate,omitempty"`
	Status    string          `json:"status"`
	Error     string          `json:"error,omitempty"`
	Result    *delta.Result   `json:"result,omitempty"`
	Migration *migrate.Result `json:"migration,omitempty"`
}

func (s *server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	out := sessionJSON{
		ID:          sess.id,
		Suite:       sess.label,
		Tenant:      sess.tenant,
		Created:     sess.created,
		Fingerprint: sess.verifier.Fingerprint(),
		Results:     sess.verifier.ResultCount(),
	}
	sess.mu.Lock()
	for _, run := range sess.runs {
		out.Runs = append(out.Runs, sessionRunJSON{
			Seq:       run.seq,
			Submitted: run.submitted,
			Baseline:  run.baseline,
			Migrate:   run.migrate,
			Status:    run.status,
			Error:     run.errMsg,
			Result:    run.result,
			Migration: run.migrateResult,
		})
	}
	sess.mu.Unlock()
	writeJSON(w, out)
}

func (s *server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sess, ok := s.sessions[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	if !sessionTenantAllowed(w, r, sess, "") { // DELETE has no body: header or ?tenant=
		return
	}
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	sess.close("session deleted")
	writeJSON(w, map[string]string{"deleted": sess.id})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		srvLog.Warn("encode response failed", slog.Any("error", err))
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
