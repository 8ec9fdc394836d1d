// Quickstart: build the Figure-1 network programmatically, state the
// no-transit safety property with its three local invariants (Table 2), and
// verify it with Lightyear's modular checks. Then plant the §2.1 bug and
// show the localized counterexample, and finally run a declarative
// multi-property verification plan — the same request document the CLI
// (-plan) and the lyserve HTTP API (POST /v2/verify) accept.
//
// The plan.Request JSON schema, shared verbatim across CLI, HTTP, and
// library:
//
//	{
//	  "network":    {"generator": {"kind": "wan", "regions": 2}},
//	  "properties": [{"name": "wan-peering", "routers": ["edge-0"]},
//	                 {"name": "wan-ip-reuse"}],
//	  "options":    {"wan_regions": 2}
//	}
//
// Against a running lyserve, submit it and stream per-check progress as
// NDJSON until the final {"type":"plan"} event:
//
//	curl -s localhost:8080/v2/verify -d @plan.json
//	  => {"id":"job-1","status_url":"/v2/jobs/job-1",
//	      "events_url":"/v2/jobs/job-1/events"}
//	curl -sN localhost:8080/v2/jobs/job-1/events
//	  => {"type":"start","prop":0,"problem":"no-bogons@edge-0","total":21}
//	     {"type":"check","prop":0,"property":"wan-peering",...}
//	     ...
//	     {"type":"problem","prop":0,"problem":"no-bogons@edge-0","ok":true,...}
//	     {"type":"property","prop":0,"property":"wan-peering","ok":true,...}
//	     {"type":"plan","ok":true}
//
// # Verifying a deployment
//
// A change rolled out to a live network passes through intermediate states,
// and any one of them can violate a property the endpoints both satisfy.
// A migration plan (internal/migrate) verifies the whole sequence: a
// baseline network, the properties to hold throughout, and ordered steps —
// each either a full replacement config ("config") or a named route-map
// edit ("mutation"). The steps.json schema, accepted verbatim by the CLI
// and (steps only) by the session endpoint:
//
//	{
//	  "network":    {"generator": {"kind": "fig1"}},
//	  "properties": [{"name": "fig1-no-transit"}],
//	  "steps": [
//	    {"label": "shield", "mutation": {"kind": "insert-export-deny",
//	      "from": "R2", "to": "ISP2", "seq": 5, "match": "community:100:1"}},
//	    {"label": "retire", "mutation": {"kind": "remove-export-clause",
//	      "from": "R2", "to": "ISP2", "seq": 10}}
//	  ]
//	}
//
// `lightyear -migrate steps.json` verifies the baseline once, then each
// step as an incremental delta re-solve (only checks touched by the edit
// are re-proven; a comment-only config step solves nothing). Exit status:
// 0 every step verified (or a safe order was found), 1 the plan violated
// at some step k (printed with the failing checks and witness), 2 the
// steps.json was malformed, 3 the walk stopped on an undecided (solver
// budget) step, 4 no safe order exists for an unordered change set. With
// "unordered": true the steps are a change *set*: the walk becomes a
// search that prunes interchangeable orders of independent steps, memoizes
// verified intermediate states, and prints the safe order it found — or
// why none exists.
//
// Against lyserve the same steps run inside a pinned session — the session
// supplies the network and properties, so the body carries only the steps —
// and the walk streams back as NDJSON, one event per state:
//
//	curl -s localhost:8080/v2/sessions -d '{
//	  "network": {"generator": {"kind": "fig1"}},
//	  "properties": [{"name": "fig1-no-transit"}]}'
//	  => {"id":"session-1",...}
//	curl -sN localhost:8080/v2/sessions/session-1/migrate -d @steps.json
//	  => {"type":"baseline","step":-1,"ok":true,"reused":22,...}
//	     {"type":"step_started","step":0,"label":"shield",...}
//	     {"type":"step_ok","step":0,"label":"shield","checks":22,"dirty":1,...}
//	     {"type":"step_started","step":1,"label":"retire",...}
//	     {"type":"step_ok","step":1,"label":"retire","checks":22,"dirty":1,...}
//	     {"type":"done","ok":true,"result":{...}}
//
// A violating plan streams {"type":"step_violated","step":k,...} plus one
// "check" event per failing check, and the session rolls back to its
// pinned baseline; on success the session re-pins on the migrated state,
// so follow-up /update calls delta against the deployed network. The
// lightyear_migrate_steps{outcome} and lightyear_migrate_reorders counters
// on /metrics count the steps and reorderings a session has verified.
//
// # Choosing a solver backend
//
// Every check is a declarative obligation decided by a pluggable solver
// backend (internal/solver). The plan's "solver" execution option selects
// one per request — the engine routes just that request's checks to it, so
// concurrent tenants of one lyserve can use different backends:
//
//	{
//	  "network":    {"generator": {"kind": "wan", "regions": 2}},
//	  "properties": [{"name": "wan-peering"}],
//	  "options":    {"wan_regions": 2,
//	                 "solver": {"backend": "portfolio"}}
//	}
//
// Backends: "native" (one in-process CDCL solve; add "budget": N to cap SAT
// conflicts per check — checks that exceed it report status "unknown"
// rather than a fake failure, and lightyear exits 3 on unknown-only runs),
// "portfolio" (races heuristic variants per check, first verdict wins,
// losers cancelled), and "tiered" (small conflict budget first — "budget"
// overrides the 2048 default — escalating to unlimited on Unknown). The
// same selection is `lightyear -solver portfolio` on the CLI. Submit one
// over HTTP and read the per-backend counters back:
//
//	curl -s localhost:8080/v2/verify -d '{
//	  "network":    {"generator": {"kind": "fig1"}},
//	  "properties": [{"name": "sat-stress"}],
//	  "options":    {"solver": {"backend": "portfolio"}}}'
//	curl -s localhost:8080/v1/status
//	  => {..., "engine": {..., "backends": {"portfolio":
//	      {"solved": 24, "raced": 87, "solve_ns": ...}}}, ...}
//
// # Running a solver fleet
//
// The "remote" backend shards those same solves across a fleet of worker
// processes (internal/fabric): the coordinator consistent-hashes each
// check key onto a worker, so a given obligation always lands on the same
// shard and the worker-side cache and dedup keep firing. Start two
// workers, point any coordinator binary at them, and run a suite:
//
//	lyworker -listen :9101 &
//	lyworker -listen :9102 &
//	lightyear -config net.cfg -property sat-stress \
//	    -solver remote:localhost:9101,localhost:9102
//
// lyserve takes the same spec (-solver remote:...) as its default backend,
// and the per-worker view shows where checks actually ran:
//
//	curl -s localhost:8080/v1/status
//	  => {..., "fabric": {"workers": [
//	        {"addr": "localhost:9101", "healthy": true, "solved": 231, ...},
//	        {"addr": "localhost:9102", "healthy": true, "solved": 213, ...}],
//	      "failovers": 0, "fallbacks": 0}}
//	curl -s localhost:9101/v1/status          # the worker's own counters
//
// Fleets degrade instead of failing: killing a worker trips its circuit
// breaker after a few failed solves, its keys re-shard to the remaining
// workers with bounded-backoff retries, and an empty or exhausted pool
// falls back to the local backend — verdicts stay ok/fail/unknown-correct
// throughout, and each solve's result records which worker and backend
// decided it ("remote(localhost:9101)/native").
//
// # Tenancy and admission
//
// Every submission runs as a tenant, and the engine sheds load at the door
// instead of queueing unboundedly. Over HTTP the tenant comes from the
// X-Tenant header (or ?tenant=, or the plan's "tenant" option), and a
// server started with admission limits —
//
//	lyserve -max-inflight 2000 -tenant-quota 800
//
// — admits each plan as one unit (its compiled check count): a request
// that does not fit is answered 429 with a Retry-After header and a typed
// body, nothing enqueued:
//
//	curl -s -D- -H 'X-Tenant: acme' localhost:8080/v2/verify -d @big-plan.json
//	  => HTTP/1.1 429 Too Many Requests
//	     Retry-After: 12
//	     {"error": "admission rejected for tenant \"acme\": cost 5200 over
//	      engine in-flight limit 2000 (retry after 12s)", "tenant": "acme",
//	      "cost": 5200, "limit": 2000, "retry_after_ms": 12000}
//
// Retry after the hint (or with a smaller plan) and the request is
// admitted; GET /v1/status reports per-tenant admitted/rejected/queued/
// in-flight counters, and admitted work is dispatched weighted-fair across
// tenants, so one tenant flooding the service cannot starve another. In
// the library the same contract is engine.Submit with a Workload (step 7
// below): rejections are the typed *engine.ErrAdmission.
//
// # Observability
//
// Wire a telemetry.Recorder into engine.Options and every layer records
// into it: counters and histograms for the Prometheus exposition, and a
// span tree per workload (step 8 below). Against a running lyserve the
// same data is one curl away:
//
//	curl -s localhost:8080/metrics | grep lightyear_checks_solved
//	  => lightyear_checks_solved_total{backend="native",status="ok"} 1643
//	TRACE=$(curl -sD- localhost:8080/v2/verify -d @plan.json \
//	          | sed -n 's/^X-Trace-Id: //Ip' | tr -d '\r')
//	curl -s localhost:8080/v1/traces/$TRACE     # span tree, JSON
//
// Every NDJSON event of the run carries the same "trace_id", so a slow
// property in a stream is one GET away from its per-problem timing
// breakdown. The CLI equivalent is `lightyear -trace` (tree on stderr).
//
// Both binaries log through one structured logger: `-log-level
// debug|info|warn|error` and `-log-format text|json` (lightyear defaults
// to text, lyserve to json), every line tagged with its component and,
// where it applies, tenant, job, and trace_id — so `lyserve -log-format
// json` yields a stream a log pipeline can join against traces.
//
// # Reading solver provenance
//
// Every solved check records how hard the CDCL search worked, not just how
// long it took. A check's JSON (/v2 reports, `lightyear -json`) carries a
// "solver" object whenever genuine search ran:
//
//	{"kind": "implication", "status": "ok", "num_vars": 72, "num_cons": 310,
//	 "num_terms": 913,
//	 "solver": {"conflicts": 57, "decisions": 71, "propagations": 812,
//	            "restarts": 0, "learned": 49}}
//
// The same counters aggregate per job ("stats":{"solver":...}), per backend
// (GET /v1/status), on the job's solve span as trace
// attributes, and as the lightyear_conflicts_per_check /
// lightyear_clauses_per_check histograms on /metrics. Checks exceeding the
// server's -slow-conflicts / -slow-solve thresholds — and every check left
// "unknown" — are logged with the full counter set (step 9 below reads the
// provenance in the library).
//
// # Health and status endpoints
//
// lyserve answers the three probes an orchestrator or dashboard needs:
//
//	curl -s localhost:8080/healthz    # liveness: process serves HTTP
//	  => {"status":"ok"}
//	curl -s localhost:8080/readyz     # readiness: component probes
//	  => {"ready":true,"components":{"store":{"ok":true},
//	      "dispatcher":{"ok":true},"admission":{"ok":true},
//	      "suites":{"ok":true}}}
//	curl -s localhost:8080/v1/status  # the one-document rollup
//
// /readyz probes the store journal's directory for writability (with
// -store), the engine dispatcher, admission-queue saturation, and the suite
// registry; any failure answers 503 naming the failing components.
// /v1/status rolls up uptime, build identity, the same readiness probes,
// engine/tenant/backend stats (solver depth included), job and session
// counts, and trace-ring occupancy. On SIGINT/SIGTERM the server drains
// gracefully: in-flight requests get -shutdown-grace, event streams flush,
// the engine drains, and the store journal closes.
//
// # The scenario corpus
//
// A corpus member reference names a whole reproducible test scenario —
// topology family, seed, knobs, and optionally a planted bug with ground
// truth — so "the network the bug was found on" is a string, not a file:
//
//	lightyear -corpus ring:42                        # clean member, verify
//	lightyear -corpus waxman:7:size=12,bug=no-bogons # planted bug, graded
//	  => corpus: planted no-bogons on session px-r3-0 -> r3:
//	     DETECTED (4 failing problems)
//	lightyear -corpus list                           # families, knobs, bugs
//	lightyear -corpus zoo:1:graph=abilene -corpus-emit  # print the config DSL
//
// The same reference is a plan network source, so lyserve verifies corpus
// members over HTTP ({"network": {"corpus": "tree:3:depth=3,fanout=2"}}).
// Step 10 below grades one member in the library.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
	"lightyear/internal/policy"
	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/telemetry"
	"lightyear/internal/topology"
)

func main() {
	// 1. Build a network: three routers in one AS, two ISPs, one customer.
	// (netgen.Fig1 builds the same network; spelled out here for the tour.)
	n := topology.New()
	n.AddRouter("R1", 65000)
	n.AddRouter("R2", 65000)
	n.AddRouter("R3", 65000)
	n.AddExternal("ISP1", 174)
	n.AddExternal("ISP2", 3356)
	n.AddExternal("Customer", 64512)
	n.AddPeering("ISP1", "R1")
	n.AddPeering("ISP2", "R2")
	n.AddPeering("Customer", "R3")
	n.AddPeering("R1", "R2")
	n.AddPeering("R1", "R3")
	n.AddPeering("R2", "R3")

	transit := routemodel.MustCommunity("100:1")

	// R1 tags everything learned from ISP1 with 100:1.
	n.SetImport(topology.Edge{From: "ISP1", To: "R1"}, &policy.RouteMap{
		Name: "r1-import-isp1",
		Clauses: []policy.Clause{
			{Seq: 10, Actions: []policy.Action{policy.AddCommunity{Comm: transit}}, Permit: true},
		},
	})
	// R2 drops tagged routes towards ISP2.
	n.SetExport(topology.Edge{From: "R2", To: "ISP2"}, &policy.RouteMap{
		Name: "r2-export-isp2",
		Clauses: []policy.Clause{
			{Seq: 10, Matches: []spec.Pred{spec.HasCommunity(transit)}, Permit: false},
			{Seq: 20, Permit: true},
		},
	})

	// 2. Define the ghost attribute FromISP1 (§4.4) and the property.
	fromISP1 := core.GhostFromExternals("FromISP1", n, func(id topology.NodeID) bool {
		return id == "ISP1"
	})
	exit := topology.Edge{From: "R2", To: "ISP2"}

	// 3. Three local invariants (Table 2): external edges are unconstrained
	// automatically; the exit edge forbids FromISP1; everywhere else the
	// key invariant says FromISP1 routes carry 100:1.
	inv := core.NewInvariants(spec.Implies(spec.Ghost("FromISP1"), spec.HasCommunity(transit)))
	inv.SetEdge(exit, spec.Not(spec.Ghost("FromISP1")))

	problem := &core.SafetyProblem{
		Network: n,
		Property: core.Property{
			Loc:  core.AtEdge(exit),
			Pred: spec.Not(spec.Ghost("FromISP1")),
			Desc: "no transit: ISP1 routes never reach ISP2",
		},
		Invariants: inv,
		Ghosts:     []core.GhostDef{fromISP1},
	}

	// 4. Verify: one local check per filter, one implication check.
	rep := core.VerifySafety(problem, core.Options{})
	fmt.Print(rep.Summary())
	fmt.Printf("(%d checks, largest check: %d SAT variables)\n\n", rep.NumChecks(), rep.MaxVars())

	// 5. Plant the §2.1 bug — R1 forgets to tag — and watch Lightyear
	// localize it to the exact filter with a concrete counterexample.
	buggy := netgen.Fig1(netgen.Fig1Options{OmitTransitTag: true})
	rep = core.VerifySafety(netgen.Fig1NoTransitProblem(buggy), core.Options{})
	fmt.Println("after removing the tag action at R1:")
	fmt.Print(rep.Summary())

	// 6. The declarative plan API: several properties — here scoped to a
	// router subset — verified as one request on one shared engine, so
	// checks shared across properties are solved once. This is the exact
	// document `lightyear -plan` and lyserve's POST /v2/verify accept.
	res, err := plan.Execute(plan.Request{
		Network: plan.Network{Generator: &netgen.GeneratorSpec{Kind: "wan", Regions: 2,
			RoutersPerRegion: 1, EdgeRouters: 1, PeersPerEdge: 2}},
		Properties: []plan.Property{
			{Name: "wan-peering", Routers: []topology.NodeID{netgen.EdgeRouter(0)}},
			{Name: "wan-ip-reuse"},
		},
		Options: plan.Options{WANRegions: 2},
	}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nplan: ok=%v across %d properties\n", res.OK, len(res.Properties))
	for _, pr := range res.Properties {
		fmt.Printf("  %-13s %d problems, %d checks, %d cache hits, %d dedup hits\n",
			pr.Property.Name, len(pr.Problems), pr.Stats.Checks, pr.Stats.CacheHits, pr.Stats.DedupHits)
	}
	fmt.Printf("engine: %d checks submitted, %d solved\n",
		res.Engine.ChecksSubmitted, res.Engine.ChecksSolved)
	// Solved is below submitted because checks are keyed by content: a
	// key hashes the check's kind, location and polarity with the
	// fingerprints of its route map, predicates and ghost updates — each
	// rendered and hashed once per network, invariant map or problem, not per
	// check — so the same filter check under two properties is one solve.
	// And a report keeps only what did not pass: "results": "failures" is the
	// default of every plan surface (`lightyear -results`, POST /v2/verify),
	// with counts, maxima and times still exact; "all" keeps every check.
	rep = res.Properties[0].Problems[0].Report
	fmt.Printf("report of %s: %d checks, %d kept; first check key %s\n",
		res.Properties[0].Problems[0].Name, rep.NumChecks(), len(rep.Results), problem.Checks(core.Options{})[0].Key())

	// 7. Tenancy and admission control: the engine's one submission entry
	// point is a typed Workload — who is submitting (Tenant), how urgent
	// (Priority) — admitted at its check count unless it runs under a
	// Reservation taken for a larger unit, and Options.Admission sheds
	// over-limit work with a typed error carrying a retry hint, before
	// anything enters the shared queue.
	cost := len(problem.Checks(core.Options{}))
	eng := engine.New(engine.Options{
		// Room for exactly one copy of the problem per tenant.
		Admission: engine.Admission{MaxInFlightChecks: 2 * cost, PerTenantQuota: cost},
	})
	defer eng.Close()
	job, err := eng.Submit(context.Background(), engine.Workload{
		Safety: problem, Tenant: "acme", Priority: 1,
	})
	if err != nil {
		panic(err)
	}
	// A second workload while acme's first is still in flight would exceed
	// the quota: the engine rejects it instead of queueing it.
	_, err = eng.Submit(context.Background(), engine.Workload{Safety: problem, Tenant: "acme"})
	var adm *engine.ErrAdmission
	if errors.As(err, &adm) {
		fmt.Printf("\nadmission: tenant %q cost %d rejected over limit %d (retry after %v)\n",
			adm.Tenant, adm.Cost, adm.Limit, adm.RetryAfter.Round(time.Millisecond))
	}
	job.Wait()
	ts := eng.Stats().Tenants["acme"]
	fmt.Printf("tenant acme: %d admitted, %d rejected (lyserve maps this rejection to HTTP 429 + Retry-After)\n",
		ts.Admitted, ts.Rejected)

	// 8. Observability: thread a telemetry.Recorder through engine.Options
	// (nil costs nothing) and the run leaves behind Prometheus-style series
	// plus a span tree. Re-registering a metric by name returns the live
	// family, so reading a counter back is the same call that created it;
	// lyserve serves the whole recorder at GET /metrics and GET /v1/traces.
	rec := telemetry.New(0)
	teng := engine.New(engine.Options{Telemetry: rec})
	defer teng.Close()
	compiled, err := plan.Compile(plan.Request{
		Network: plan.Network{Generator: &netgen.GeneratorSpec{Kind: "wan", Regions: 2,
			RoutersPerRegion: 1, EdgeRouters: 1, PeersPerEdge: 2}},
		Properties: []plan.Property{{Name: "wan-peering", Routers: []topology.NodeID{netgen.EdgeRouter(0)}}},
		Options:    plan.Options{WANRegions: 2},
	}, nil)
	if err != nil {
		panic(err)
	}
	tres, err := plan.Run(teng, compiled, plan.RunConfig{})
	if err != nil {
		panic(err)
	}
	solved := rec.Counter("lightyear_checks_solved_total", "", "backend", "status").With("native", "ok")
	solveP99 := rec.Histogram("lightyear_solve_seconds", "", nil, "backend").Quantile(0.99)
	fmt.Printf("\ntelemetry: %d checks solved ok, solve p99 %.2gs, trace %s:\n",
		solved.Value(), solveP99, tres.TraceID)
	if snap, ok := rec.Trace(tres.TraceID); ok {
		snap.WriteTree(os.Stdout)
	}

	// 9. Solver provenance: every CheckResult records the depth of the CDCL
	// search that decided it. Route-map checks are decided by propagation
	// alone (all-zero SolveStats); the sat-stress pigeonhole obligations
	// force genuine search, so their implication check shows non-zero depth
	// — the same counters /v1/status, the /metrics histograms, and the
	// slow-check log surface in production.
	sj, err := teng.Submit(context.Background(), engine.Workload{
		Safety: netgen.StressProblem(netgen.Fig1(netgen.Fig1Options{}), 4),
	})
	if err != nil {
		panic(err)
	}
	for _, r := range sj.Wait().Results {
		if r.Solver.Conflicts == 0 {
			continue // decided by unit propagation alone
		}
		fmt.Printf("\nprovenance %q:\n  %d conflicts, %d decisions, %d learned clauses, %d restarts (%d vars, %d clauses, %d terms)\n",
			r.Desc, r.Solver.Conflicts, r.Solver.Decisions, r.Solver.Learned,
			r.Solver.Restarts, r.NumVars, r.NumCons, r.NumTerms)
	}

	// 10. The scenario corpus: a member reference is a reproducible test
	// network, and a planted bug comes with machine-checkable ground truth
	// — which session was mutated, which property must fail, which must
	// keep passing. Build the member once to read the ground truth, then
	// verify it through the ordinary plan path (the reference itself is
	// the network source) and grade the run against it.
	member, err := corpus.Parse("waxman:7:size=12,degree=3,bug=no-bogons")
	if err != nil {
		panic(err)
	}
	_, gt, err := member.Build()
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ncorpus %s: planted %s on session %s -> %s\n",
		member.Ref(), gt.Property, gt.Mutation.From, gt.Mutation.To)
	cres, err := plan.Execute(plan.Request{
		Network:    plan.Network{Corpus: member.Ref()},
		Properties: []plan.Property{{Name: corpus.PropertySuite}},
	}, nil)
	if err != nil {
		panic(err)
	}
	detected, unexpected := 0, 0
	for _, pr := range cres.Properties {
		for _, prob := range pr.Problems {
			switch {
			case prob.OK:
			case strings.HasPrefix(prob.Name, gt.Property+"@"):
				detected++
			default:
				unexpected++
			}
		}
	}
	fmt.Printf("corpus: %d failing problems of the planted property, %d mislocalized — detection %v\n",
		detected, unexpected, detected > 0 && unexpected == 0)
}
