// Command lightyear verifies BGP control-plane properties of a network
// configuration using modular local checks.
//
// Usage:
//
//	lightyear -config net.cfg -property fig1-no-transit [-workers N] [-cache N] [-json] [-verbose] [-results failures|all]
//	lightyear -config net.cfg -property wan-peering,wan-ip-reuse        # several properties, one engine
//	lightyear -config net.cfg -property wan-peering -routers edge-0    # router-scoped properties
//	lightyear -config net.cfg -property wan-ip-reuse -regions 0,2      # region-scoped properties
//	lightyear -config new.cfg -diff old.cfg -property wan-peering      # incremental re-verification
//	lightyear -config net.cfg -store DIR                               # persistent result store
//	lightyear -config net.cfg -solver portfolio                        # race solver heuristics per check
//	lightyear -config net.cfg -solver tiered:1000                      # small budget first, escalate on Unknown
//	lightyear -config net.cfg -tenant ops -max-inflight 500            # tenancy + admission control
//	lightyear -plan plan.json                                          # run a saved verification plan
//	lightyear -migrate steps.json                                      # verify a migration plan step by step
//	lightyear -list                                                    # print the property registry
//	lightyear -corpus ring:42                                          # verify a generated corpus member
//	lightyear -corpus waxman:7:size=16,bug=no-bogons                   # corpus member with a planted bug
//	lightyear -corpus zoo:1 -corpus-graph net.graphml                  # imported TopologyZoo-style graph
//	lightyear -corpus list                                             # enumerate corpus families and knobs
//
// Every invocation is compiled into an internal/plan Request — the same
// declarative document lyserve accepts on POST /v2/verify — and run on a
// shared internal/engine Engine. The configuration file uses the DSL of
// internal/config (see cmd/lygen to generate examples). Properties are
// registered in the internal/netgen suite registry; -list prints them:
//
//	fig1-no-transit   Table 2: routes from ISP1 never reach ISP2
//	fig1-liveness     Table 3: customer prefixes reach ISP2
//	fullmesh          §6.2: no-transit on a generated full mesh
//	sat-stress        adversarial pigeonhole obligations exercising the solver backends
//	wan-peering       Table 4a: the 11 peering properties at every router
//	wan-ip-reuse      Table 4b: regional reused-IP isolation
//	wan-ip-liveness   Table 4c: reused routes propagate within each region
//
// -property accepts a comma-separated list; all listed properties run as
// one plan on one engine, so identical local checks shared across
// properties (and across the routers each property sweeps) are solved once
// and served from the engine's result cache thereafter. -routers scopes
// per-router properties (wan-peering, wan-ip-reuse) to a comma-separated
// router subset; -regions scopes regional properties (wan-ip-reuse,
// wan-ip-liveness) to a comma-separated list of 0-based region indices.
// -workers sizes the engine's worker pool and -cache its LRU result-cache
// capacity (0 = engine default, negative disables caching).
//
// -solver selects the solver backend checks are routed to, as
// "backend[:budget]" (the plan document's "solver" request option):
//
//	native       one in-process CDCL solve per check (default); an optional
//	             budget caps SAT conflicts per check (checks that exceed it
//	             report UNKNOWN)
//	portfolio    race heuristic variants of the solver per check, first
//	             verdict wins, losers cancelled
//	tiered       solve with a small conflict budget first (default 2048, or
//	             the given budget), escalate to unlimited on Unknown
//
// With -corpus the network source is a scenario-corpus member reference
// (internal/corpus): family:seed plus optional knobs, deterministically
// synthesized and verified like any other network. Members default
// -property to wan-peering (the suite the corpus policy template
// instantiates), a bug=<property> knob plants a known violation whose
// detection is graded after the run, -corpus-emit prints the generated
// configuration instead of verifying it, and -corpus-graph attaches a
// GraphML or edge-list file to a zoo member. -corpus list enumerates the
// families, their knobs, the builtin graphs, and the plantable bugs.
//
// With -plan file.json the request is read from the file (the plan.Request
// JSON schema; see package internal/plan), strictly: an unknown field is a
// usage error. Explicitly set flags override the corresponding plan
// fields: -config replaces the network source, -property/-routers/-regions
// the property list, and -solver/-results/-wan-regions/-tenant the request
// options. -workers, -cache and -store configure the engine, which no plan
// document describes, and -diff adds a baseline.
//
// With -store DIR the internal/store persistent journal in DIR sits behind
// the engine's in-memory result cache (-cache): results recorded by earlier
// runs (of any suite) are served without re-solving, so a rerun after a
// process restart reports reused results. The store is keyed by check
// content alone and keeps every verdict that holds; it has no retention
// bound.
//
// -tenant names the principal the run's workloads are admitted and
// accounted under (the plan document's "tenant" request option; the same
// identity lyserve reads from the X-Tenant header), and -max-inflight
// bounds the engine's admitted in-flight checks: a plan whose compiled
// check count exceeds the bound is rejected before any work starts, with
// the same typed admission error lyserve maps to HTTP 429 + Retry-After.
// A run admits one plan under one tenant, so there is no weighted-fair
// dispatch to configure (lyserve's -tenant-weights).
//
// With -trace the run records an end-to-end telemetry trace — compile,
// admit, queue, dispatch, solve:<backend>, cache, store spans with
// per-span durations and attributes — and prints the span tree to stderr
// after the report. The same span tree lyserve serves at /v1/traces/{id}.
// Solve spans carry the per-job solver-depth attributes (conflicts,
// decisions, restarts, learned), the same provenance every CheckResult now
// records (see -json's per-check "solver" object and -verbose's depth
// column).
//
// -log-level and -log-format configure the structured logger every
// component (engine, store) emits through: levels debug|info|warn|error,
// formats text (default for this CLI) or json. Slow (10,000 conflicts or
// 2 s in the solver) or undecided checks are logged with their full solver
// provenance.
//
// With -diff old.cfg the command runs incrementally on one internal/delta
// Verifier over the compiled plan: it verifies old.cfg as the baseline,
// then re-verifies -config against it, re-solving only the checks the
// configuration change dirtied, and reports {changed routers, dirty checks,
// reused results, solved}. Exit status reflects the -config (updated)
// network; a failing baseline is reported but only fails the run if the
// update also fails. Incremental runs inherit the plan's property list and
// -routers scoping.
//
// -results selects what the per-problem reports carry (the plan document's
// "results" option): failures, the default, keeps every check that did not
// pass — description, location and witness in full — and counts the rest;
// all keeps every check, as the paper-table runs want. The counts, maxima
// and summed times of a report are the same either way. -verbose prints
// every check and so implies all.
//
// With -json, the command emits a single machine-readable JSON document on
// stdout instead of the human-readable summary: the plan result encoding
// {ok, properties: [...], engine} that lyserve's /v2 API serves.
//
// With -migrate steps.json the command verifies a migration plan instead of
// a single state: the file is a migrate.Plan JSON document — a baseline
// network source, a property list, and an ordered list of steps, each either
// a full replacement config ("config") or a named route-map edit
// ("mutation": {"kind": "insert-export-deny", "from": "R2", "to": "ISP2",
// "seq": 5, "match": "community:100:1"}). Every intermediate state is
// re-verified incrementally against the previous one (internal/delta), so a
// step re-solves only the checks its own change dirtied, and the first
// violating step is reported with its failing checks and witnesses. With
// "unordered": true the steps are treated as an unordered change set and the
// command searches for a safe ordering ("search_budget" bounds how many
// intermediate states the search may verify). The file decodes as strictly
// as -plan's, and -config, -property, -routers, -regions and the
// request-option flags override the corresponding plan fields as with
// -plan; -diff and -corpus are usage errors, since the file names the
// baseline.
//
// Exit status contract:
//
//	0  every problem of every property verified (skipped optional problems
//	   allowed); for -migrate: every step of the walked (or found) order
//	1  at least one local check failed, or verification could not run
//	   (unreadable or unparsable configuration, invalid liveness path);
//	   for -migrate: the plan violated at some step k (see the output)
//	2  usage error (missing network source, unknown -property or -solver,
//	   a malformed -plan or -migrate file, or one naming an unknown field)
//	3  no check failed, but at least one check was left UNKNOWN (solver
//	   budget exhausted) — the properties are neither proven nor refuted;
//	   raise the budget or switch -solver to decide them; for -migrate:
//	   the walk stopped on an undecided step
//	4  -migrate only: no safe order exists for the unordered change set
//	   (or the search budget was exhausted before one was found)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"lightyear/internal/core"
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

// cliFlags carries the parsed command line into buildRequest, with Set
// recording which flags were given explicitly (plan-file overrides).
type cliFlags struct {
	ConfigPath  string
	Corpus      string // corpus member reference, or "list"
	CorpusGraph string // graph file attached to a zoo corpus member
	Properties  string
	Routers     string
	Regions     string // property scope: comma-separated region indices
	PlanPath    string
	MigratePath string // migration plan (migrate.Plan JSON)
	DiffPath    string
	Workers     int
	Cache       int
	Store       string
	Solver      string
	Results     string // which check results reports carry: failures | all
	Verbose     bool   // print every check; implies Results = all
	WANRegions  int
	Tenant      string
	MaxInflight int // engine admission: max in-flight checks (0 = unlimited)
	Set         map[string]bool
}

func (f cliFlags) set(name string) bool { return f.Set[name] }

// buildRequest compiles the flags into the plan.Request the run executes.
// Usage errors (the exit-2 class) are returned as *usageError.
func buildRequest(f cliFlags) (plan.Request, error) {
	var req plan.Request
	saved := f.PlanPath != ""
	if saved {
		if err := decodeFile(f.PlanPath, &req); err != nil {
			return req, err
		}
	}
	switch {
	case f.Corpus != "":
		if f.ConfigPath != "" {
			return req, &usageError{"-config and -corpus are mutually exclusive"}
		}
		m, err := corpusMember(f)
		if err != nil {
			return req, err
		}
		if m.GraphText != "" {
			// An out-of-band graph file cannot travel in a member reference;
			// inline the emitted DSL instead (same network, same bug state).
			text, err := m.DSL()
			if err != nil {
				return req, err
			}
			req.Network = plan.Network{Config: text}
		} else {
			req.Network = plan.Network{Corpus: f.Corpus}
		}
	case !saved || f.set("config"):
		if f.ConfigPath == "" {
			return req, &usageError{"-config is required (generate one with lygen, pick -corpus, or pass -plan)"}
		}
		req.Network = plan.Network{ConfigPath: f.ConfigPath}
	}
	var err error
	if req.Properties, err = applyPropertyFlags(f, saved, req.Properties); err != nil {
		return req, err
	}
	if err := applyOptionFlags(f, saved, &req.Options); err != nil {
		return req, err
	}
	if f.DiffPath != "" {
		req.Options.Baseline = &plan.Network{ConfigPath: f.DiffPath}
	}
	if err := req.Validate(); err != nil {
		var reqErr *plan.RequestError
		if errors.As(err, &reqErr) {
			return req, &usageError{strings.TrimPrefix(reqErr.Error(), "plan: ")}
		}
		return req, err
	}
	return req, nil
}

// applyPropertyFlags applies -property, -routers and -regions to a property
// list. Without a saved document (saved false) -property, or its default,
// names the list; with one, an explicit -property replaces the document's
// list, and -routers or -regions alone re-scope it.
func applyPropertyFlags(f cliFlags, saved bool, props []plan.Property) ([]plan.Property, error) {
	var routers []topology.NodeID
	if f.Routers != "" {
		for _, r := range strings.Split(f.Routers, ",") {
			if r = strings.TrimSpace(r); r != "" {
				routers = append(routers, topology.NodeID(r))
			}
		}
	}
	var regions []int
	if f.Regions != "" {
		for _, r := range strings.Split(f.Regions, ",") {
			r = strings.TrimSpace(r)
			if r == "" {
				continue
			}
			idx, err := strconv.Atoi(r)
			if err != nil {
				return nil, &usageError{fmt.Sprintf("-regions: bad region index %q (want 0-based integers)", r)}
			}
			regions = append(regions, idx)
		}
	}
	if saved && !f.set("property") {
		if f.set("routers") {
			for i := range props {
				props[i].Routers = routers
			}
		}
		if f.set("regions") {
			for i := range props {
				props[i].Regions = regions
			}
		}
		return props, nil
	}
	names := f.Properties
	if f.Corpus != "" && !f.set("property") {
		// Corpus members are built for the peering suite; make it the
		// default property instead of the fig1 demo.
		names = corpus.PropertySuite
	}
	props = nil
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := netgen.Lookup(name); !ok {
			return nil, &usageError{fmt.Sprintf("unknown property %q (have: %s)",
				name, strings.Join(netgen.SuiteNames(), ", "))}
		}
		props = append(props, plan.Property{Name: name, Routers: routers, Regions: regions})
	}
	if len(props) == 0 {
		return nil, &usageError{fmt.Sprintf("-property lists no properties (have: %s)",
			strings.Join(netgen.SuiteNames(), ", "))}
	}
	return props, nil
}

// applyOptionFlags applies the request-option flags to o: every one without
// a saved document, only the explicitly set ones with one. The engine flags
// (-workers, -cache, -store) are not request options; newEngine reads them.
func applyOptionFlags(f cliFlags, saved bool, o *plan.Options) error {
	override := func(name string) bool { return !saved || f.set(name) }
	if override("solver") {
		o.Solver = nil
		if f.Solver != "" {
			spec, err := solver.ParseSpec(f.Solver)
			if err != nil {
				return &usageError{err.Error()}
			}
			o.Solver = &spec
		}
	}
	if override("results") {
		o.Results = engine.ResultsMode(f.Results)
	}
	if f.Verbose {
		o.Results = engine.ResultsAll
	}
	if override("wan-regions") {
		o.WANRegions = f.WANRegions
	}
	if override("tenant") {
		o.Tenant = f.Tenant
	}
	return nil
}

type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

// decodeFile reads a -plan or -migrate document with plan.Decode; a
// malformed document, an unknown field included, is a usage error.
func decodeFile(path string, v any) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	if err := plan.Decode(fh, v); err != nil {
		return &usageError{fmt.Sprintf("%s: %v", path, err)}
	}
	return nil
}

// corpusMember resolves -corpus (plus an optional -corpus-graph file) into
// the member the run verifies.
func corpusMember(f cliFlags) (corpus.Member, error) {
	graphText := ""
	if f.CorpusGraph != "" {
		src, err := os.ReadFile(f.CorpusGraph)
		if err != nil {
			return corpus.Member{}, err
		}
		graphText = string(src)
	}
	m, err := corpus.ParseWithGraphText(f.Corpus, graphText)
	if err != nil {
		return m, &usageError{strings.TrimPrefix(err.Error(), "corpus: ")}
	}
	if f.CorpusGraph != "" && m.Family != "zoo" {
		return m, &usageError{"-corpus-graph only applies to zoo corpus members"}
	}
	return m, nil
}

// printCorpusFamilies renders the corpus enumeration: families with their
// knobs, the builtin zoo graphs, and the plantable bugs.
func printCorpusFamilies(prefix string) {
	for _, fam := range corpus.Families() {
		fmt.Printf("%s%-17s %s\n", prefix, fam.Name, fam.Desc)
		for _, k := range fam.Knobs {
			fmt.Printf("%s    %-10s %-10s %s\n", prefix, k.Name, k.Default, k.Desc)
		}
	}
	fmt.Printf("%sbuiltin zoo graphs: %s\n", prefix, strings.Join(corpus.BuiltinGraphNames(), ", "))
	fmt.Printf("%splantable bugs (bug=...): %s\n", prefix, strings.Join(corpus.BugNames(), ", "))
}

// meanDegree is the average BGP neighbor count over configured routers.
func meanDegree(n *topology.Network) float64 {
	routers := n.Routers()
	if len(routers) == 0 {
		return 0
	}
	total := 0
	for _, r := range routers {
		total += n.Degree(r)
	}
	return float64(total) / float64(len(routers))
}

// printCorpusDetection compares the run's failing problems against the
// member's planted-bug ground truth: the planted property must fail and
// every other failure is unexpected.
func printCorpusDetection(res *plan.Result, gt *corpus.GroundTruth) {
	if gt == nil {
		fmt.Println("corpus: clean member (no planted bug)")
		return
	}
	detected, unexpected := 0, 0
	for _, pr := range res.Properties {
		for _, p := range pr.Problems {
			if p.OK || p.Skipped {
				continue
			}
			if strings.HasPrefix(p.Name, gt.Property+"@") {
				detected++
			} else {
				unexpected++
			}
		}
	}
	verdict := "NOT DETECTED"
	if detected > 0 {
		verdict = fmt.Sprintf("DETECTED (%d failing problems)", detected)
	}
	fmt.Printf("corpus: planted %s on session %s: %s\n", gt.Property, gt.Session, verdict)
	if unexpected > 0 {
		fmt.Printf("corpus: %d failing problems outside the planted property\n", unexpected)
	}
}

func main() {
	var f cliFlags
	flag.StringVar(&f.ConfigPath, "config", "", "path to the network configuration file")
	flag.StringVar(&f.Corpus, "corpus", "", "verify a corpus member (family:seed[:knob=value,...]), or \"list\" to enumerate families")
	flag.StringVar(&f.CorpusGraph, "corpus-graph", "", "GraphML or edge-list file for zoo corpus members")
	flag.StringVar(&f.Properties, "property", "fig1-no-transit", "comma-separated property suites to verify (corpus members default to wan-peering)")
	flag.StringVar(&f.Routers, "routers", "", "comma-separated router subset scoping per-router properties")
	flag.StringVar(&f.Regions, "regions", "", "comma-separated 0-based region indices scoping regional properties")
	flag.StringVar(&f.PlanPath, "plan", "", "run a saved plan.Request JSON file")
	flag.StringVar(&f.MigratePath, "migrate", "", "verify a migration plan (migrate.Plan JSON: baseline, properties, ordered steps)")
	flag.StringVar(&f.DiffPath, "diff", "", "baseline configuration: verify -config incrementally against it")
	flag.IntVar(&f.Workers, "workers", 0, "parallel check workers (0 = GOMAXPROCS)")
	flag.IntVar(&f.Cache, "cache", 0, "engine in-memory result-cache capacity (0 = default, <0 disables)")
	flag.StringVar(&f.Store, "store", "", "persistent result-store directory, behind the in-memory cache")
	flag.StringVar(&f.Solver, "solver", "", "solver backend: native, portfolio, or tiered as backend[:budget]")
	flag.StringVar(&f.Results, "results", "", "check results the reports carry: failures (default) or all")
	flag.BoolVar(&f.Verbose, "verbose", false, "print every check result (implies -results all)")
	flag.IntVar(&f.WANRegions, "wan-regions", 3, "region count assumed for WAN properties")
	flag.StringVar(&f.Tenant, "tenant", "", "tenant the run is admitted and accounted under")
	flag.IntVar(&f.MaxInflight, "max-inflight", 0, "admission: max in-flight checks on the engine (0 = unlimited)")
	list := flag.Bool("list", false, "print the registered property suites and corpus families, then exit")
	corpusEmit := flag.Bool("corpus-emit", false, "print the corpus member's generated configuration and exit")
	jsonOut := flag.Bool("json", false, "emit the report as machine-readable JSON")
	traceOut := flag.Bool("trace", false, "record an end-to-end telemetry trace and print its span tree to stderr")
	var logCfg logging.Config
	logCfg.RegisterFlags(flag.CommandLine, "text")
	flag.Parse()
	f.Set = map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { f.Set[fl.Name] = true })

	logger, err := logCfg.Build(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lightyear:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *list {
		for _, s := range netgen.Suites() {
			fmt.Printf("%-17s %s\n", s.Name, s.Desc)
		}
		fmt.Println("\ncorpus families (-corpus family:seed[:knob=value,...]):")
		printCorpusFamilies("")
		return
	}
	if f.Corpus == "list" {
		printCorpusFamilies("")
		return
	}
	if *corpusEmit {
		if f.Corpus == "" {
			os.Exit(fail(&usageError{"-corpus-emit requires -corpus"}))
		}
		m, err := corpusMember(f)
		if err == nil {
			var text string
			if text, err = m.DSL(); err == nil {
				fmt.Print(text)
				return
			}
		}
		os.Exit(fail(err))
	}

	if f.MigratePath != "" {
		os.Exit(runMigrate(f, *jsonOut, *traceOut, logger))
	}

	req, err := buildRequest(f)
	if err != nil {
		os.Exit(fail(err))
	}
	rec, tr := startTelemetry(*traceOut, "cli", req.Options.Tenant)
	cs := tr.StartSpan("compile")
	compiled, err := plan.Compile(req, nil)
	cs.End()
	if err != nil {
		os.Exit(fail(err))
	}
	tr.SetLabel(compiled.Label())
	if !*jsonOut {
		if path := req.Network.ConfigPath; path != "" {
			n := compiled.Network
			fmt.Printf("parsed %s: %d routers, %d externals, %d sessions\n",
				path, len(n.Routers()), len(n.Externals()), n.NumEdges())
		}
		if f.Corpus != "" {
			n := compiled.Network
			fmt.Printf("corpus %s: %d routers, %d externals, %d sessions, mean degree %.1f\n",
				f.Corpus, len(n.Routers()), len(n.Externals()), n.NumEdges(), meanDegree(n))
		}
		if f.DiffPath != "" {
			n := compiled.Baseline
			fmt.Printf("baseline %s: %d routers, %d externals, %d sessions\n",
				f.DiffPath, len(n.Routers()), len(n.Externals()), n.NumEdges())
		}
	}

	eng, resultStore, err := newEngine(f, rec, logger)
	if err != nil {
		os.Exit(fail(err))
	}
	if resultStore != nil {
		defer resultStore.Close()
		if !*jsonOut {
			fmt.Printf("store: %s (%d results on disk)\n", f.Store, resultStore.Len())
		}
	}
	defer eng.Close()

	if compiled.Baseline != nil {
		base, upd, err := runDiff(eng, compiled, tr)
		if err != nil {
			os.Exit(fail(err))
		}
		printDelta(base, upd, compiled, eng.Stats(), *jsonOut, resultStore)
		printTrace(rec, tr)
		os.Exit(exitCode(&plan.Result{OK: upd.OK, Failures: upd.Failures, Unknowns: upd.Unknown}))
	}
	res, err := plan.Run(eng, compiled, plan.RunConfig{Store: resultStore, Trace: tr})
	if err != nil {
		os.Exit(fail(err))
	}

	switch {
	case *jsonOut:
		emitJSON(res)
	default:
		printHuman(res, compiled, f.Verbose, resultStore)
		if f.Corpus != "" {
			// buildRequest already validated the reference; resolve the
			// ground truth to grade the run against it.
			if m, err := corpusMember(f); err == nil {
				if gt, err := m.Plant(); err == nil {
					printCorpusDetection(res, gt)
				}
			}
		}
	}
	printTrace(rec, tr)
	os.Exit(exitCode(res))
}

// fail prints err and returns the exit status of its class: 2 for usage
// errors — bad flags and malformed plan documents — and 1 for everything
// else, an admission rejection included: the whole plan was shed before any
// check ran, the same backpressure lyserve answers as HTTP 429.
func fail(err error) int {
	var usage *usageError
	var reqErr *plan.RequestError
	var adm *engine.ErrAdmission
	switch {
	case errors.As(err, &usage):
		fmt.Fprintln(os.Stderr, "lightyear:", usage)
		return 2
	case errors.As(err, &reqErr): // e.g. an invalid -routers scope
		fmt.Fprintln(os.Stderr, "lightyear:", strings.TrimPrefix(reqErr.Error(), "plan: "))
		return 2
	case errors.As(err, &adm):
		err = adm
	}
	fmt.Fprintln(os.Stderr, "lightyear:", err)
	return 1
}

// startTelemetry opens the run's recorder and trace under -trace (both nil
// otherwise) and points the process-wide corpus sink at them. The trace
// covers the whole run, compilation included.
func startTelemetry(on bool, label, tenant string) (*telemetry.Recorder, *telemetry.Trace) {
	var rec *telemetry.Recorder
	var tr *telemetry.Trace
	if on {
		rec = telemetry.New(0)
		tr = rec.StartTrace(label, tenant)
	}
	corpus.SetTelemetry(rec)
	return rec, tr
}

// printTrace writes the finished trace's span tree to stderr under -trace.
func printTrace(rec *telemetry.Recorder, tr *telemetry.Trace) {
	if rec == nil {
		return
	}
	if snap, ok := rec.Trace(tr.ID()); ok {
		snap.WriteTree(os.Stderr)
	}
}

// newEngine builds the run's engine from the engine flags — -workers,
// -cache, -store and -max-inflight — which no plan document carries. With a
// store directory the persistent result store sits behind the engine's
// in-memory cache; the caller closes both.
func newEngine(f cliFlags, rec *telemetry.Recorder, logger *slog.Logger) (*engine.Engine, *store.Store, error) {
	opts := engine.Options{
		Workers:   f.Workers,
		CacheSize: f.Cache,
		Telemetry: rec,
		Logger:    logger,
		Admission: engine.Admission{MaxInFlightChecks: f.MaxInflight},
	}
	var st *store.Store
	if f.Store != "" {
		var err error
		st, err = store.Open(f.Store)
		if err != nil {
			return nil, nil, err
		}
		st.SetTelemetry(rec)
		st.SetLogger(logger)
		opts.Cache = st
	}
	return engine.New(opts), st, nil
}

// exitCode maps a plan result onto the CLI's exit contract: 0 verified,
// 1 a check failed (or a problem could not run), 3 nothing failed but at
// least one check was left UNKNOWN — the run exhausted its solver budget
// without refuting anything, which deserves a distinct signal from a real
// violation.
func exitCode(res *plan.Result) int {
	switch {
	case res.OK:
		return 0
	case res.Failures == 0 && res.Unknowns > 0:
		return 3
	default:
		return 1
	}
}

// printHuman renders the per-problem reports, per-property and engine
// accounting, and the final verdict line.
func printHuman(res *plan.Result, c *plan.Compiled, verbose bool, st *store.Store) {
	multi := len(res.Properties) > 1
	for _, pr := range res.Properties {
		if multi {
			scope := ""
			if len(pr.Property.Routers) > 0 {
				scope = fmt.Sprintf(" (routers %s)", joinIDs(pr.Property.Routers))
			}
			fmt.Printf("== property %s%s\n", pr.Property.Name, scope)
		}
		for _, p := range pr.Problems {
			switch {
			case p.Skipped:
				fmt.Printf("skip %s: %s\n", p.Name, p.SkipReason)
			case p.Failed:
				fmt.Printf("FAIL %s: %s\n", p.Name, p.SkipReason)
			default:
				printReport(p.Report, verbose)
				fmt.Printf("  job: %d checks, %d cache hits, %d dedup hits\n",
					p.Stats.Checks, p.Stats.CacheHits, p.Stats.DedupHits)
			}
		}
		if multi {
			fmt.Printf("== property %s: %d checks, %d cache hits, %d dedup hits, ok=%v\n",
				pr.Property.Name, pr.Stats.Checks, pr.Stats.CacheHits, pr.Stats.DedupHits, pr.OK)
		}
	}
	printEngineSummary(res.Engine)
	printStoreSummary(st)
	switch {
	case res.OK:
		fmt.Println("all properties verified")
	case res.Failures == 0 && res.Unknowns > 0:
		fmt.Printf("%d checks UNKNOWN (solver budget exhausted): properties undecided, not refuted\n", res.Unknowns)
	}
}

// printEngineSummary renders the engine counters plus the per-backend solve
// accounting (deterministic order).
func printEngineSummary(est engine.Stats) {
	fmt.Printf("engine: %d checks submitted, %d solved, %d cache hits, %d dedup hits\n",
		est.ChecksSubmitted, est.ChecksSolved, est.CacheHits, est.DedupHits)
	names := make([]string, 0, len(est.Backends))
	for name := range est.Backends {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bs := est.Backends[name]
		extra := ""
		if bs.Raced > 0 {
			extra += fmt.Sprintf(", %d variants raced", bs.Raced)
		}
		if bs.Escalated > 0 {
			extra += fmt.Sprintf(", %d escalated", bs.Escalated)
		}
		if bs.Unknown > 0 {
			extra += fmt.Sprintf(", %d unknown", bs.Unknown)
		}
		if bs.Solver.Depth() {
			extra += fmt.Sprintf(", %d conflicts / %d decisions", bs.Solver.Conflicts, bs.Solver.Decisions)
		}
		fmt.Printf("  backend %s: %d solved in %v%s\n",
			name, bs.Solved, time.Duration(bs.SolveNanos).Round(time.Microsecond), extra)
	}
}

func printReport(rep *core.Report, verbose bool) {
	if verbose {
		for _, r := range rep.Results {
			status := "PASS"
			if !r.OK {
				status = "FAIL"
			}
			depth := ""
			if r.Solver.Conflicts != 0 || r.Solver.Decisions != 0 {
				depth = fmt.Sprintf(", %d conflicts, %d decisions", r.Solver.Conflicts, r.Solver.Decisions)
			}
			fmt.Printf("  %s [%s] %s (%d vars, %d clauses, solve %v%s)\n",
				status, r.Kind, r.Desc, r.NumVars, r.NumCons, r.SolveTime, depth)
		}
	}
	fmt.Print(rep.Summary())
}

// printStoreSummary reports persistent-store reuse in the human output: the
// "reused" count is how many checks this run served from results recorded
// by earlier processes (plus intra-run refetches).
func printStoreSummary(st *store.Store) {
	if st == nil {
		return
	}
	s := st.Stats()
	fmt.Printf("store: %d results loaded, %d reused, %d recorded\n", s.Loaded, s.Hits, s.Puts)
}

func emitJSON(doc any) {
	encoded, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		os.Exit(fail(err))
	}
	os.Stdout.Write(append(encoded, '\n'))
}

// deltaProblemJSON is one problem of a delta run with its report encoded.
type deltaProblemJSON struct {
	delta.ProblemOutcome
	Report *engine.ReportJSON `json:"report,omitempty"`
}

// deltaRunJSON is the JSON form of one delta.Result.
type deltaRunJSON struct {
	*delta.Result
	Problems []deltaProblemJSON `json:"problems"`
}

func encodeDeltaResult(r *delta.Result) deltaRunJSON {
	out := deltaRunJSON{Result: r}
	for _, p := range r.Problems {
		pj := deltaProblemJSON{ProblemOutcome: p}
		if p.Report != nil {
			enc := engine.EncodeReport(p.Report)
			pj.Report = &enc
		}
		out.Problems = append(out.Problems, pj)
	}
	return out
}

// diffOutput is the -diff -json document.
type diffOutput struct {
	Suite    string       `json:"suite"`
	OK       bool         `json:"ok"`
	Baseline deltaRunJSON `json:"baseline"`
	Update   deltaRunJSON `json:"update"`
	Engine   engine.Stats `json:"engine"`
	Store    *store.Stats `json:"store,omitempty"`
}

// runDiff is -diff: it verifies the compiled plan's baseline in full, then
// re-verifies its network incrementally against it on one delta.Verifier
// over the plan's scoped problems, re-solving only the checks the change
// dirtied. Both runs' engine spans nest under a "delta" span of tr, beside
// a "baseline" and an "update" span; runDiff finishes tr.
func runDiff(eng *engine.Engine, c *plan.Compiled, tr *telemetry.Trace) (base, upd *delta.Result, err error) {
	defer tr.Finish()
	v := delta.NewVerifierFor(eng, c)
	wl := c.Workload()
	del := tr.StartSpan("delta")
	defer del.End()
	wl.TraceSpan = del
	v.SetWorkload(wl)
	bs := tr.StartSpan("baseline")
	if base, err = v.Baseline(c.Baseline); err == nil {
		bs.SetAttrInt("solved", int64(base.Solved))
	}
	bs.End()
	if err != nil {
		return nil, nil, err
	}
	us := tr.StartSpan("update")
	if upd, err = v.Update(c.Network); err == nil {
		us.SetAttrInt("solved", int64(upd.Solved))
		us.SetAttrInt("reused", int64(upd.ReusedResults))
	}
	us.End()
	return base, upd, err
}

// printDelta renders a -diff run.
func printDelta(base, upd *delta.Result, c *plan.Compiled, est engine.Stats, jsonOut bool, st *store.Store) {
	if jsonOut {
		out := diffOutput{Suite: c.Label(), OK: upd.OK,
			Baseline: encodeDeltaResult(base), Update: encodeDeltaResult(upd), Engine: est}
		if st != nil {
			stats := st.Stats()
			out.Store = &stats
		}
		emitJSON(out)
		return
	}
	fmt.Println(base)
	if !base.OK {
		fmt.Println("warning: baseline configuration does not verify")
	}
	if upd.Diff != nil {
		fmt.Printf("diff: %s; changed routers: %s\n", upd.Diff, joinIDs(upd.ChangedRouters))
	}
	fmt.Println(upd)
	for _, p := range upd.Problems {
		if p.Report != nil && !p.Report.OK() {
			fmt.Print(p.Report.Summary())
		}
	}
	printEngineSummary(est)
	printStoreSummary(st)
	switch {
	case upd.OK:
		fmt.Println("updated configuration verified incrementally")
	case upd.Failures == 0 && upd.Unknown > 0:
		fmt.Printf("%d checks UNKNOWN (solver budget exhausted): properties undecided, not refuted\n", upd.Unknown)
	}
}

func joinIDs(ids []topology.NodeID) string {
	if len(ids) == 0 {
		return "(none)"
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, ", ")
}

// migratePlan reads the -migrate file and applies the flag overrides -plan
// applies. Usage errors (the exit-2 class) are returned as *usageError.
func migratePlan(f cliFlags) (migrate.Plan, error) {
	var p migrate.Plan
	if f.DiffPath != "" || f.Corpus != "" {
		return p, &usageError{"-diff and -corpus do not apply to -migrate (the plan file names the baseline)"}
	}
	if err := decodeFile(f.MigratePath, &p); err != nil {
		return p, err
	}
	if f.set("config") {
		p.Network = &plan.Network{ConfigPath: f.ConfigPath}
	}
	var err error
	if p.Properties, err = applyPropertyFlags(f, true, p.Properties); err != nil {
		return p, err
	}
	return p, applyOptionFlags(f, true, &p.Options)
}

// runMigrate is the -migrate entry point: build the migration plan and walk
// (or search) it on a private engine. Returns the process exit code.
func runMigrate(f cliFlags, jsonOut, traceOut bool, logger *slog.Logger) int {
	p, err := migratePlan(f)
	if err != nil {
		return fail(err)
	}

	rec, tr := startTelemetry(traceOut, "cli-migrate", p.Options.Tenant)
	c, err := migrate.Compile(p, nil)
	if err != nil {
		return fail(err)
	}
	tr.SetLabel("migrate:" + c.Inner.Label())
	if !jsonOut {
		n := c.Inner.Network
		mode := "ordered"
		if c.Plan.Unordered {
			mode = "unordered (searching for a safe order)"
		}
		fmt.Printf("migration plan: %d steps (%s) over %d routers, %d sessions\n",
			c.NumSteps(), mode, len(n.Routers()), n.NumEdges())
	}

	eng, resultStore, err := newEngine(f, rec, logger)
	if err != nil {
		return fail(err)
	}
	if resultStore != nil {
		defer resultStore.Close()
	}
	defer eng.Close()

	sink := func(migrate.Event) {}
	if !jsonOut {
		sink = printMigrateEvent
	}
	res, err := migrate.Run(context.Background(), eng, c, migrate.RunConfig{
		Sink: sink, Recorder: rec, Trace: tr,
	})
	if err != nil {
		return fail(err)
	}
	if jsonOut {
		emitJSON(res)
	} else {
		printMigrateSummary(res)
		printEngineSummary(eng.Stats())
		printStoreSummary(resultStore)
	}
	printTrace(rec, tr)
	return migrateExitCode(res)
}

// migrateExitCode maps a migration result onto the exit contract: 0 the
// plan (or found order) is safe end to end, 4 no safe order exists for the
// change set, 3 the walk stopped on an undecided step, 1 it violated.
func migrateExitCode(res *migrate.Result) int {
	switch {
	case res.OK:
		return 0
	case res.Infeasible:
		return 4
	case res.Undecided:
		return 3
	default:
		return 1
	}
}

// printMigrateEvent renders the progress stream in human mode, one line per
// verified state plus the failing checks of violated ones.
func printMigrateEvent(ev migrate.Event) {
	prefix := ""
	if ev.Search {
		prefix = "search: "
	}
	switch ev.Type {
	case migrate.EvBaseline:
		if ev.Checks > 0 {
			fmt.Printf("baseline: %d checks, %d solved, ok=%v\n", ev.Checks, ev.Solved, ev.OK)
		} else {
			fmt.Printf("baseline: pinned session state (%d retained results)\n", ev.Reused)
		}
	case migrate.EvStepOK:
		if ev.Unchanged {
			fmt.Printf("%sstep %d (%s): ok [no-op: network unchanged]\n", prefix, ev.Step, ev.Label)
			return
		}
		fmt.Printf("%sstep %d (%s): ok — %d checks, %d dirty, %d reused, %d solved\n",
			prefix, ev.Step, ev.Label, ev.Checks, ev.Dirty, ev.Reused, ev.Solved)
	case migrate.EvStepViolated:
		reason := ev.Reason
		if reason == "" {
			reason = fmt.Sprintf("%d failing checks", ev.Checks)
		}
		fmt.Printf("%sstep %d (%s): VIOLATED — %s\n", prefix, ev.Step, ev.Label, reason)
	case migrate.EvCheck:
		fmt.Printf("%s  %s [%s] %s\n", prefix, strings.ToUpper(ev.Status), ev.Problem, ev.Check)
		if ev.Witness != "" {
			for _, line := range strings.Split(ev.Witness, "\n") {
				fmt.Printf("%s    %s\n", prefix, line)
			}
		}
	case migrate.EvOrderFound:
		fmt.Printf("safe order found after %d states: %s\n", ev.States, strings.Join(ev.Labels, " -> "))
	case migrate.EvOrderInfeasible:
		fmt.Printf("no safe order (%d states explored): %s\n", ev.States, ev.Reason)
	}
}

// printMigrateSummary renders the final verdict and the per-step delta-reuse
// accounting.
func printMigrateSummary(res *migrate.Result) {
	switch {
	case res.OK && !res.Ordered:
		fmt.Printf("migration plan verified: safe order %s (%d states verified, %d memo hits, %d orders pruned)\n",
			strings.Join(res.OrderLabels, " -> "), res.SearchStates, res.MemoHits, res.PrunedOrders)
	case res.OK:
		fmt.Printf("migration plan verified: %d steps, every intermediate state holds\n", len(res.Steps))
	case res.Infeasible:
		fmt.Printf("migration plan INFEASIBLE: %s\n", res.Reason)
		if ex := res.Explanation; ex != nil {
			if len(ex.SafePrefix) > 0 {
				fmt.Printf("  longest safe prefix: %s\n", strings.Join(ex.PrefixLabels, " -> "))
			}
			for _, b := range ex.Blocked {
				fmt.Printf("  blocked: %s — %s\n", b.Label, b.Reason)
			}
		}
	case res.Undecided:
		fmt.Printf("migration plan UNDECIDED at step %d (%s): %s\n", res.ViolatedStep, res.ViolatedLabel, res.Reason)
	default:
		fmt.Printf("migration plan VIOLATED at step %d (%s): %s\n", res.ViolatedStep, res.ViolatedLabel, res.Reason)
	}
}
