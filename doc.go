// Package lightyear is a from-scratch Go implementation of Lightyear
// (Tang et al., SIGCOMM 2023): modular BGP control-plane verification that
// decomposes end-to-end network properties into local checks on individual
// routers and edges.
//
// The library lives under internal/ — see internal/core for the verifier,
// internal/smt for the SMT substrate, internal/sim for the executable BGP
// model, and internal/minesweeper for the monolithic baseline. The
// executables are cmd/lightyear (verifier CLI), cmd/lygen (configuration
// generator), cmd/lybench (prints the rows and verdicts of the paper's
// tables, Figure 3 and the §4.5 fault runs), and cmd/lyserve (HTTP
// verification service). The benchmarks in bench_test.go cover every table
// and figure of the paper's evaluation section; bench/ is the repository
// benchmark, which measures and grades end-to-end performance.
//
// # Execution engine
//
// All verification runs on internal/engine, the shared execution substrate:
// a process-wide bounded worker pool that schedules the local checks of all
// submitted workloads through the pipeline
//
//	admission → per-tenant fair queue → in-flight dedup (singleflight) →
//	LRU result cache → reports
//
// Submission is one typed entry point: an engine.Workload names what to
// verify (a safety problem, a liveness problem, or a raw check batch), the
// Tenant submitting it, a Priority, and the Reservation it runs under, and
// engine.Submit(ctx, workload) returns the running job. Both cmd/lightyear
// and cmd/lybench submit to an engine, and lyserve exposes one over HTTP.
//
// # Check keys
//
// Checks are keyed by their semantic content (core.Check.Key), so a WAN
// property sweep that re-issues identical filter checks for every router ×
// property pair solves each distinct formula once, and concurrent jobs
// submitting the same check share the single in-flight solve. A key is the
// first 128 bits of a SHA-256, hex-encoded, over fixed-width parts: the
// check kind, the location's node IDs, the polarity, and a 128-bit content
// fingerprint (spec.Fingerprint, SHA-256 over the canonical rendering) of
// each of the route map, the ghost-update list and the two predicates. What
// is fingerprinted is rendered and hashed once per owner, never per check:
// route maps and originated routes on the built network (topology.Network
// memoises a PolicyIndex per edge, dropped by every mutator — a RouteMap
// itself is a value its builder may still edit, so nothing is memoised on
// it), invariants on core.Invariants (per assigned predicate, replaced by
// Set), ghost-update lists and the property predicate per problem. The hash
// stays SHA-256/128 because a key gates the sharing of a cached verdict
// across jobs, sessions and the persistent store: a collision would hand one
// check's verdict to another, which a 64-bit or non-cryptographic hash
// leaves to birthday luck. Descriptions are lazy in the same spirit: a
// check, obligation or result carries a core.Desc that renders the text only
// when something prints, logs or serialises it.
//
// # Results: failures or all
//
// What a report carries is one option, spelled the same on every plan
// surface — `lightyear -results failures|all`, {"options": {"results":
// ...}} in a plan document and on POST /v2/verify — and failures is the
// default there (-verbose implies all). Under failures the engine folds
// every passing result into exact aggregates as it arrives (count, max
// variables, max clauses, summed solve and total time — core.Report.Folded)
// and materialises only Fail and Unknown results, description rendered and
// witness in full; num_checks, num_failed, max_vars and the other report
// totals are the same numbers either way. The NDJSON event contract under
// each mode: "start" per problem (with its check total), "check" per check
// that did not pass (failures) or per check (all), "problem" per finished
// problem in plan order (with its stats; progress jumps to the full count),
// "property" per property, then "plan". A finished lyserve job retains what its reports
// carry — under the default, a summary per problem plus its failures, all
// strings — and nothing the engine cache, the store or the job table holds
// points back into the plan, its network or its obligations. A bare
// engine.Submit (zero SubmitOptions) still reports every result.
//
// # Tenancy and admission control
//
// A production lyserve multiplexes many principals onto one engine, so
// load is shed before it enters the shared queue, not after the workers
// are saturated. engine.Options.Admission bounds the admitted, unreleased
// check cost globally (MaxInFlightChecks) and per tenant (PerTenantQuota),
// and engine.Reserve is the one place that decision is made: every
// workload runs under exactly one reservation — its unit's, or one Submit
// takes for its check count. A refusal is the typed engine.ErrAdmission
// {Tenant, Cost, Limit, RetryAfter, Permanent}; RetryAfter is estimated
// from the observed per-check solve time. Admitted workloads are
// dispatched by deficit round-robin across tenants (weights via
// Admission.Weights), so a tenant flooding the engine cannot starve the
// others; Priority orders workloads within one tenant only.
//
// The admission unit is the request, not the check: a compiled plan
// reports its total check count via plan.Compiled.Cost — counted from the
// topology and the paths without generating a check — and the whole plan
// is admitted up front (engine.Reserve) or rejected untouched. An admitted
// plan is then generated and submitted in batches of 65,536 checks, so a
// run holds about two batches of checks at a time whatever the plan's
// size. Surfaces:
// lyserve derives the tenant from the X-Tenant header / ?tenant= query /
// plan "tenant" option, answers rejected plans with HTTP 429 plus a
// Retry-After header, and reports per-tenant counters (admitted, rejected,
// queued, in-flight cost) in GET /v1/status. Session creation reserves
// the baseline (429 there) and hands the grant to the queued run; an
// update reserves its dirty checks once its diff is known. `lightyear
// -tenant ops -max-inflight 500` exercises the same path in-process.
//
// # Check obligations and solver backends
//
// Check construction and check execution are separate layers. A generated
// check carries a core.Obligation — the declarative, inspectable description
// of what must be proven (kind, location, the route map and ghost actions
// involved, the pre/post predicates, and the polarity) with an Encode method
// producing the violation formula in any smt.Context — and internal/solver
// decides obligations through the solver.Backend interface
// (Solve(ctx, obligation, budget) → outcome). Three in-process backends
// ship, plus remote (internal/fabric: obligations shipped to a lyworker fleet):
//
//   - native: one in-process CDCL solve per obligation (the default);
//   - portfolio: races heuristic variants of the solver (VSIDS vs static
//     order, phase polarity, restarts) per obligation — the first verdict
//     wins and the losers are cancelled via context;
//   - tiered: a small conflict-budget attempt first, escalating to the full
//     budget only on Unknown, so cheap checks stay cheap and hard ones
//     still finish.
//
// Every check result carries an explicit Status — ok, fail, or unknown
// (budget exhausted; not a refutation) — plus the backend label that
// produced it, and the engine aggregates per-backend counters (solved,
// unknown, variants raced, escalations, solve time). Unknown results are
// never cached or retained, so a later run with a bigger budget re-solves
// them. Choosing a backend is a per-request routing decision: the plan
// option {"solver": {"backend": "portfolio", "budget": N}}, the CLI flag
// `lightyear -solver tiered:1000`, or engine.SubmitOptions in the library;
// `lightyear` exits 3 when a run fails only because of Unknown checks. The
// sat-stress suite (registered like any property) plants pigeonhole
// obligations that genuinely require search, for exercising budgets and
// backends end-to-end; the repository benchmark's solver.* layer metrics
// (bench/) compare the backends on the WAN and pigeonhole obligations.
//
// The result cache is a pluggable seam (engine.ResultCache): the default is
// an in-memory LRU, and internal/store provides a disk-persistent
// JSON-journal implementation keyed by check key (with the originating
// network's fingerprint as provenance), so warm starts survive process
// restarts and lyserve redeploys (-store DIR on both commands). The journal
// is read and written by a hand-written codec for its one line shape,
// byte-identical to encoding/json's, so opening a warm store does not pay
// for reflection. Journal records carry the key scheme's version (3: an
// originate check's key covers the ghosts' origination values); records of
// another version are never served and are compacted away on open.
//
// # Delta verification
//
// internal/delta turns the paper's §2 incremental claim — re-verification
// after a change costs work proportional to the change, not the network —
// into a measurable subsystem. A delta.Verifier pins a baseline network
// for a registry suite or plan; each Update computes the per-router/per-edge
// structural diff (topology.DiffNetworks, comparing the two networks'
// memoised policy fingerprints), reuses every check whose semantic key
// already has a retained result, and submits only the dirty subset to the
// engine, reporting {changed routers, dirty checks, reused results,
// solved}. When the diff only changed edge policies, a safety problem whose
// frame digest (core.SafetyProblem.Frame: every key input but the per-edge
// policy fingerprints) is unchanged regenerates only the changed edges'
// checks and its implication check; every other check is served from the
// location index of keys the last run kept, so an update costs the edit,
// not the network. Liveness problems, results=all sessions and any other
// change enumerate in full. Surfaces: `lightyear -diff old.cfg` for incremental
// CLI runs, the lyserve session API (POST /v2/sessions, POST
// /v2/sessions/{id}/update, GET /v2/sessions/{id}), examples/incremental,
// and the repository benchmark's delta-cli workload.
//
// # Migration plans
//
// internal/migrate verifies reconfiguration sequences, not just states: a
// migrate.Plan pins a baseline network and walks an ordered list of steps —
// each a full replacement config or a named route-map edit
// (netgen.MutationSpec: insert/remove an import or export clause, tighten a
// router's peer imports) — verifying every intermediate state as a dirty-
// subset delta re-solve on one delta.Verifier. A step whose parsed network
// fingerprints like the pinned state (a comment-only config, say) reuses
// its verdicts without solving, unless the pinned run left checks
// undecided; a violating step stops the walk and reports its index,
// failing checks, and witnesses. For an unordered change set
// ("unordered": true) migrate.Run searches for a safe order instead:
// depth-first over permutations, pruning interchangeable orders of
// independent steps (disjoint touched routers commute), memoizing verified
// intermediate states by network fingerprint, and bounded by a search
// budget — answering a safe order, or a minimal explanation of why none
// exists. The whole plan is admitted up front as one engine.Reserve unit.
// Surfaces: `lightyear -migrate steps.json` (exit 0 safe, 1 violated at
// step k, 3 undecided, 4 no safe order), POST /v2/sessions/{id}/migrate on
// lyserve (streams step events as NDJSON; success re-pins the session on
// the migrated state, failure rolls back), and the lightyear_migrate_steps /
// lightyear_migrate_reorders counters on /metrics. A commuting change set
// of k steps is searched in k verified states, not k! orders
// (internal/migrate's TestCommutingStepsSearchLinearStates).
//
// # Verification plans — the one request API
//
// internal/plan is the declarative request schema every entry point speaks:
// a plan.Request composes a network source (inline config DSL, a config
// file path, a named netgen generator, or a pinned session baseline), a
// list of properties — each a registered suite name optionally scoped to a
// router or region subset (netgen.Scope) — and execution options (workers,
// cache or persistent store, WAN region count, and an optional baseline
// network that switches the run to incremental delta mode). The canonical
// JSON form:
//
//	{
//	  "network":    {"generator": {"kind": "wan", "regions": 2}},
//	  "properties": [{"name": "wan-peering", "routers": ["edge-0"]},
//	                 {"name": "wan-ip-reuse"}],
//	  "options":    {"wan_regions": 2}
//	}
//
// One request producing N per-property reports runs as N job batches on one
// engine, so checks shared across properties are solved once. Surfaces:
//
//   - CLI: `lightyear -property a,b,c [-routers r1,r2]` compiles the flags
//     into a plan; `-plan file.json` runs a saved one; `-list` prints the
//     registry.
//   - HTTP: `POST /v2/verify` accepts a plan and returns a job whose
//     events stream as NDJSON from `GET /v2/jobs/{id}/events` ("start",
//     "check", "problem", "property", and a final "plan" event; see
//     "Results" above); `GET /v2/jobs/{id}` is the grouped snapshot.
//     `POST /v2/sessions` pins a plan for incremental updates that inherit
//     its scoping. `lightyear -json` prints the same plan result encoding
//     the job snapshot serves.
//   - Library: plan.Execute (one-stop) or plan.Compile + plan.Run on a
//     long-lived engine; a Compiled plan is also a delta.ProblemSource.
//
// # Observability
//
// internal/telemetry is the dependency-free telemetry plane the whole stack
// emits into: a telemetry.Recorder holds named counters, gauges, and
// fixed-bucket histograms (with label support) plus a bounded ring of
// finished workload traces, and every layer — engine submit/dispatch,
// admission, solver backends, the result caches, internal/store, and the
// delta verifier — records into the recorder passed via
// engine.Options.Telemetry (a nil recorder is a no-op, so the
// instrumentation costs nothing when unused). Metric names are stable and
// Prometheus-conventional: lightyear_jobs_submitted_total,
// lightyear_checks_solved_total{backend,status}, lightyear_solve_seconds
// and lightyear_queue_wait_seconds histograms,
// lightyear_admission_rejections_total{tenant,reason}, cache and store
// series, and inflight/queue-depth gauges.
//
// A trace follows one workload through the pipeline as a span tree —
// compile, admit, then one problem span per verification problem with
// child spans for enumeration, solving, and cache interaction — and is
// pushed into the recorder's ring when the run finishes. Surfaces: lyserve
// serves GET /metrics in the Prometheus text exposition format, lists
// finished traces at GET /v1/traces, serves one at GET /v1/traces/{id},
// stamps every v2 job with its trace (X-Trace-Id response header,
// "trace_id" in the accept body, the job snapshot, and every NDJSON
// event), and mounts net/http/pprof under /debug/pprof/ behind the -pprof
// flag; `lightyear -trace` prints the run's span tree to stderr.
//
// # Reading solver provenance
//
// Every solved check reports not just its verdict and wall time but how
// hard the underlying CDCL search worked: core.CheckResult carries the
// encoding size (NumVars, NumCons, NumTerms) and a core.SolveStats
// {conflicts, decisions, propagations, restarts, learned clauses} snapshot
// taken from the SAT core at the end of the solve. The same counters
// aggregate at every level — per job (engine.JobStats.Solver), per backend
// (engine.Stats.Backends[name].Solver, also in lyserve's /v1/status), on
// the job's solve span as trace attributes, and in the
// lightyear_conflicts_per_check and lightyear_clauses_per_check histograms
// on /metrics — so "this run was slow" can be split into "the
// formulas got bigger" vs "the search got deeper" at whichever granularity
// the investigation needs. Checks that cross a slow-check policy threshold
// (engine.Options.SlowCheck; -slow-conflicts / -slow-solve on lyserve), and
// every check left Unknown, are additionally logged with the full counter
// set.
//
// # Structured logging
//
// internal/logging builds the log/slog loggers every component shares:
// `-log-level` (debug|info|warn|error) and `-log-format` (text|json) on
// both cmd/lightyear (text default) and cmd/lyserve (json default), with a
// common attribute vocabulary (component, tenant, job, trace_id) so a JSON
// log pipeline can join log lines against traces and job snapshots. The
// engine logs slow/undecided checks, the store logs journal append and
// compaction failures, and lyserve logs lifecycle, session expiry, and
// request-failure events — all through the one configured logger.
//
// # Health and status endpoints
//
// lyserve exposes a Kubernetes-style health plane: GET /healthz is pure
// liveness (the process serves HTTP); GET /readyz runs component probes —
// store journal writable, engine dispatcher live, admission queue not
// saturated, suites registered — and answers 503 naming every failing
// component; GET /v1/status is the one-document rollup a dashboard polls:
// uptime and build identity, the readiness probes, engine/tenant/backend
// stats including solver depth, job and session counts, and trace-ring
// occupancy. lyserve also shuts down gracefully on SIGINT/SIGTERM:
// in-flight requests get -shutdown-grace to finish while event streams
// flush, then the engine drains and the store journal closes.
//
// # Scenario corpus
//
// internal/corpus turns "a test network" into a declarative, reproducible
// coordinate: a member reference family:seed[:knob=value,...] names one
// scenario — a graph source (ring, tree, fattree, and waxman synthesizers,
// plus a zoo importer reading GraphML or edge-list files in the
// TopologyZoo style), a deterministic role assignment (which nodes are
// edge routers, which external peers attach where), and the WAN peering
// policy template — and corpus.Parse + Member.Build regenerate the same
// network byte-for-byte from the same reference, on any machine. A member
// may also carry a planted bug (bug=no-bogons and seven other wan-peering
// properties): corpus.Plant returns the mutated network together with a
// GroundTruth record naming the mutated session, the property that must
// now fail, and the properties that must keep passing — so a verifier run
// is gradable, not just runnable. On top of that, corpus.Fuzz applies a
// seed-derived trail of property-preserving edits (clause renumbering,
// no-op inserts then removes, router reorderings) for soak runs where the
// suite must keep passing. Surfaces: `lightyear -corpus ref` verifies a
// member and reports planted-bug detection, `-corpus list` and `-list`
// enumerate the families and knobs, `-corpus-emit` prints the member's
// config DSL; a plan's network source may be {"corpus": "ref"} (so
// lyserve verifies corpus members over HTTP). The ≥30-member default
// roster, each member with a planted bug, is a tier-1 test (internal/corpus's
// TestDefaultRosterSweep): every bug detected, every failing check located
// on the planted session, every member regenerated byte-identically.
// Generation and planting count into the lightyear_corpus_generated_total /
// lightyear_corpus_bugs_planted_total counters on /metrics.
//
// # Property registry
//
// Built-in property suites are registered by name in internal/netgen
// (netgen.Lookup / netgen.SuiteNames) and shared by all entry points:
// fig1-no-transit, fig1-liveness, fullmesh, wan-peering, wan-ip-reuse,
// wan-ip-liveness, and sat-stress. Suites decompose into network builders
// (netgen.Generate over netgen.GeneratorSpec) and scoped property builders
// (netgen.Suite.Problems), the two layers plans compose.
package lightyear
