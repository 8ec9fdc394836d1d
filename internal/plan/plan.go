// Package plan is the declarative verification-request API shared by every
// Lightyear entry point: the lightyear CLI, the lyserve HTTP service
// (POST /v2/verify), and library callers all build a plan.Request and run it
// on an internal/engine Engine with Compile + Run.
//
// A Request says what to verify. It composes three orthogonal parts:
//
//   - a network source (Network): an inline internal/config DSL source, a
//     config file path, a named generator (netgen.GeneratorSpec), a corpus
//     member reference (internal/corpus), or a symbolic reference to a
//     pinned session baseline resolved by the host (lyserve sessions);
//   - a property list (Property): one entry per registered suite name
//     (netgen.Lookup), each optionally scoped to a router subset and/or WAN
//     region subset (netgen.Scope);
//   - the options every host honors (Options): WAN region count, solver,
//     tenant, priority, and results mode. Engine settings and incremental
//     re-verification belong to the host: a Compiled plan is the
//     delta.ProblemSource lyserve sessions and lightyear -diff drive.
//
// One request producing N per-property reports runs as N batches of jobs on
// one engine, so the engine's semantic-key cache and in-flight dedup
// amortize checks shared across properties — the same request issued as
// separate single-property calls would re-solve them.
//
// The canonical JSON encoding of a Request (the POST /v2/verify body and
// the `lightyear -plan` file format; Decode refuses unknown fields):
//
//	{
//	  "network":    {"generator": {"kind": "wan", "regions": 2}},
//	  "properties": [{"name": "wan-peering", "routers": ["edge-0"]},
//	                 {"name": "wan-ip-reuse", "regions": [0]}],
//	  "options":    {"wan_regions": 2}
//	}
package plan

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"lightyear/internal/config"
	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/solver"
	"lightyear/internal/topology"
)

// Request is one declarative verification request: a network source, the
// properties to verify over it, and request options.
type Request struct {
	Network    Network    `json:"network"`
	Properties []Property `json:"properties"`
	Options    Options    `json:"options,omitempty"`
}

// Network is a serializable network source. Exactly one field must be set.
type Network struct {
	// Config is inline internal/config DSL source.
	Config string `json:"config,omitempty"`
	// ConfigPath is a path to a DSL file, read when the plan is compiled
	// (CLI and saved plan files; rejected by lyserve, which has no
	// filesystem contract with its callers).
	ConfigPath string `json:"config_path,omitempty"`
	// Generator names a built-in network generator.
	Generator *netgen.GeneratorSpec `json:"generator,omitempty"`
	// Corpus references a corpus member ("family:seed[:knob=value,...]",
	// internal/corpus). Members build deterministically from the
	// reference alone — no filesystem contract — so the source is safe on
	// every host, lyserve included.
	Corpus string `json:"corpus,omitempty"`
	// Baseline references a network pinned by the host — e.g. an lyserve
	// session id, resolved to that session's pinned state. Requires a
	// Resolver.
	Baseline string `json:"baseline,omitempty"`
}

// Property selects one registered suite, optionally scoped. The same suite
// may appear more than once with different scopes; each entry produces its
// own per-property report while the engine dedups the shared checks.
type Property struct {
	Name    string            `json:"name"`
	Routers []topology.NodeID `json:"routers,omitempty"`
	Regions []int             `json:"regions,omitempty"`
}

// Scope returns the property's netgen scope.
func (p Property) Scope() netgen.Scope {
	return netgen.Scope{Routers: p.Routers, Regions: p.Regions}
}

// Options are the request options every host honors. Engine settings
// (workers, cache, store) are each host's own flags.
type Options struct {
	// WANRegions is the region count WAN suites assume (0 = the generator's
	// region count, or the netgen default of 3). It may not exceed the
	// network's router count.
	WANRegions int `json:"wan_regions,omitempty"`
	// Solver selects the solver backend the request's checks are routed to
	// ({"backend": "native"|"portfolio"|"tiered", "budget": N}); nil means
	// the engine default. It is a per-job routing decision, not an engine
	// rebuild, so a shared engine honors it too.
	Solver *solver.Spec `json:"solver,omitempty"`
	// Tenant is the principal the request's workloads are admitted and
	// accounted under (engine.DefaultTenant when empty). Hosts with their
	// own identity channel (lyserve's X-Tenant header / ?tenant= query)
	// overwrite it before compiling.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders this request's workloads within the tenant's queue
	// (higher first); it never preempts other tenants.
	Priority int `json:"priority,omitempty"`
	// Results selects what per-problem reports and the event stream carry:
	// "failures" (the default) keeps the checks that did not pass — in full,
	// witness included — and counts the rest; "all" keeps every check, as
	// the paper-table runs want.
	Results engine.ResultsMode `json:"results,omitempty"`
	// Baseline is Go-only, no plan document carries it: Compile
	// materializes it into Compiled.Baseline for a caller that drives a
	// delta.Verifier over the plan itself (lightyear -diff). Run ignores it.
	Baseline *Network `json:"-"`
}

// Decode reads one JSON document into v strictly: a field v does not
// declare is an error naming it, and so is anything after the document.
// Every host reads plan documents through it.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the document")
	}
	return nil
}

// Resolver resolves symbolic baseline network references (Network.Baseline)
// to pinned network states. The returned regions value is the WAN region
// count the pinned state was verified under (0 if not regional), so plans
// over a baseline reference inherit it instead of assuming the default.
// Hosts without pinned state pass nil.
type Resolver interface {
	ResolveBaseline(ref string) (n *topology.Network, regions int, err error)
}

// RequestError marks a malformed request (the usage-error class): bad shape,
// unknown property, or an invalid scope. Entry points detect it with
// errors.As to map it to their usage-error surface (CLI exit 2, HTTP 400)
// without matching on message text.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

// RequestErrorf builds a RequestError. Sibling request layers (e.g.
// internal/migrate) use it too: their malformed inputs belong to the same
// usage-error class and every entry point classifies them identically.
func RequestErrorf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// Validate checks the request's shape without materializing networks:
// exactly one network source, at least one property, and every property
// name registered. Compile calls it; entry points may call it earlier for
// fast feedback.
func (r Request) Validate() error {
	if err := r.Network.validate(); err != nil {
		return err
	}
	if len(r.Properties) == 0 {
		return RequestErrorf("plan: at least one property is required (have: %s)",
			strings.Join(netgen.SuiteNames(), ", "))
	}
	for _, p := range r.Properties {
		if _, ok := netgen.Lookup(p.Name); !ok {
			return RequestErrorf("plan: unknown property %q (have: %s)",
				p.Name, strings.Join(netgen.SuiteNames(), ", "))
		}
	}
	if s := r.Options.Solver; s != nil {
		if !solver.Known(s.Backend) {
			return RequestErrorf("plan: unknown solver backend %q (have: %s)",
				s.Backend, strings.Join(solver.Names(), ", "))
		}
		if s.Budget < 0 {
			return RequestErrorf("plan: solver budget must be >= 0, got %d", s.Budget)
		}
	}
	switch r.Options.Results {
	case "", engine.ResultsFailures, engine.ResultsAll:
	default:
		return RequestErrorf("plan: unknown results mode %q (want %q or %q)",
			r.Options.Results, engine.ResultsFailures, engine.ResultsAll)
	}
	return nil
}

func (ns Network) validate() error {
	set := 0
	for _, present := range []bool{ns.Config != "", ns.ConfigPath != "", ns.Generator != nil, ns.Corpus != "", ns.Baseline != ""} {
		if present {
			set++
		}
	}
	switch {
	case set == 0:
		return RequestErrorf("plan: a network source is required (config, config_path, generator, corpus, or baseline)")
	case set > 1:
		return RequestErrorf("plan: exactly one network source must be set (config, config_path, generator, corpus, or baseline)")
	}
	// A generator or corpus source is sized from its parameters before it
	// is built (netgen.MaxSourceSize): Compile runs ahead of admission.
	if ns.Generator != nil {
		if err := ns.Generator.CheckSize(); err != nil {
			return RequestErrorf("plan: %v", err)
		}
	}
	if ns.Corpus != "" {
		if _, err := corpus.Parse(ns.Corpus); err != nil {
			return RequestErrorf("plan: %v", err)
		}
	}
	return nil
}

// Materialize builds the network the source describes, validating the
// source's shape first (exactly one field set), so hosts materializing a
// bare Network — e.g. a session update body — reject ambiguous sources
// instead of silently picking one. The second return value is the
// generator's region count (0 when the source implies none).
func (ns Network) Materialize(res Resolver) (*topology.Network, int, error) {
	if err := ns.validate(); err != nil {
		return nil, 0, err
	}
	switch {
	case ns.Config != "":
		n, err := config.Parse(ns.Config)
		if err != nil {
			return nil, 0, fmt.Errorf("config: %w", err)
		}
		return n, 0, nil
	case ns.ConfigPath != "":
		src, err := os.ReadFile(ns.ConfigPath)
		if err != nil {
			return nil, 0, err
		}
		n, err := config.Parse(string(src))
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", ns.ConfigPath, err)
		}
		return n, 0, nil
	case ns.Generator != nil:
		return netgen.Generate(*ns.Generator)
	case ns.Corpus != "":
		m, err := corpus.Parse(ns.Corpus)
		if err != nil {
			return nil, 0, RequestErrorf("plan: %v", err)
		}
		n, _, err := m.Build()
		if err != nil {
			return nil, 0, err
		}
		return n, 0, nil
	case ns.Baseline != "":
		if res == nil {
			return nil, 0, fmt.Errorf("baseline reference %q requires a host with pinned sessions", ns.Baseline)
		}
		return res.ResolveBaseline(ns.Baseline)
	default:
		return nil, 0, RequestErrorf("plan: a network source is required")
	}
}

// Unit is one compiled property: its suite and the problems it builds on
// the request's network.
type Unit struct {
	Property Property
	Suite    netgen.Suite
	Problems []netgen.Problem
}

// Compiled is a validated, materialized request ready to Run. It implements
// delta.ProblemSource, so incremental sessions re-enumerate exactly the
// plan's scoped problems on every pinned state.
type Compiled struct {
	Request  Request
	Network  *topology.Network
	Baseline *topology.Network // Options.Baseline, materialized
	Params   netgen.SuiteParams
	Units    []Unit

	// backend is the resolved solver backend (nil when the request defers
	// to the engine default).
	backend solver.Backend

	prepMu   sync.Mutex
	prepared [][]PreparedProblem
	costDone bool
	cost     int
}

// PreparedProblem is one problem's generated check batch, or the error that
// prevented generation.
type PreparedProblem struct {
	Property core.Property
	Checks   []core.Check
	Err      error
}

// Prepared returns the per-unit, per-problem generated check batches of the
// whole plan, generating (and caching) them if needed. It serves the
// repository benchmark and tests, which time or inspect enumeration on its
// own; Run does not call it — it generates one batch of problems at a time.
// Checks carry no generation-time conflict budget, so the engine's own
// budget applies when they run. Call ReleasePrepared once the batches have
// been consumed.
func (c *Compiled) Prepared() [][]PreparedProblem {
	c.prepMu.Lock()
	defer c.prepMu.Unlock()
	if c.prepared == nil {
		c.prepared = make([][]PreparedProblem, len(c.Units))
		for pi, u := range c.Units {
			c.prepared[pi] = make([]PreparedProblem, len(u.Problems))
			for i, p := range u.Problems {
				c.prepared[pi][i] = prepare(p)
			}
		}
	}
	return c.prepared
}

// ReleasePrepared drops the batches Prepared cached.
func (c *Compiled) ReleasePrepared() {
	c.prepMu.Lock()
	c.prepared = nil
	c.prepMu.Unlock()
}

// prepare generates one problem's checks.
func prepare(p netgen.Problem) PreparedProblem {
	prop, checks, err := delta.Generate(p)
	return PreparedProblem{Property: prop, Checks: checks, Err: err}
}

// Backend returns the solver backend the request selected, nil for the
// engine default.
func (c *Compiled) Backend() solver.Backend { return c.backend }

// Tenant returns the principal the request runs as ("" = engine default).
func (c *Compiled) Tenant() string { return c.Request.Options.Tenant }

// Cost returns the plan's admission cost: the total number of local checks
// its scoped problems generate on the compiled network, counted without
// generating any. Hosts admit the whole plan as one unit —
// engine.Reserve(plan.Tenant(), plan.Cost()) — so a request is either
// fully admitted or rejected up front (HTTP 429) rather than half-run.
// Problems whose checks cannot be generated (an invalid liveness path)
// contribute nothing; they fail at submission regardless of admission.
func (c *Compiled) Cost() int {
	c.prepMu.Lock()
	defer c.prepMu.Unlock()
	if !c.costDone {
		for _, u := range c.Units {
			c.cost += delta.CountChecks(u.Problems)
		}
		c.costDone = true
	}
	return c.cost
}

// Workload returns the engine.Workload template the compiled request
// implies — tenant, priority, solver-backend and results-mode overrides
// (plans default to failures-only results), with the payload left for the
// caller to fill. Hosts apply it to every submission
// the plan spawns (including incremental session updates), so tenancy and
// backend selection follow the request end-to-end.
func (c *Compiled) Workload() engine.Workload {
	results := c.Request.Options.Results
	if results == "" {
		results = engine.ResultsFailures
	}
	return engine.Workload{
		Tenant:        c.Request.Options.Tenant,
		Priority:      c.Request.Options.Priority,
		SubmitOptions: engine.SubmitOptions{Backend: c.backend, Results: results},
	}
}

// Compile validates the request, materializes its network — and
// Options.Baseline, when a Go caller set one — and builds every property's
// scoped problems. res may be nil when the request uses no baseline
// references.
func Compile(req Request, res Resolver) (*Compiled, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	n, genRegions, err := req.Network.Materialize(res)
	if err != nil {
		return nil, err
	}
	// The WAN suites build per-region problems before admission, so the
	// region count is bounded by the network: each region needs a router.
	regions := req.Options.WANRegions
	if routers := len(n.Routers()); regions > routers {
		return nil, RequestErrorf("plan: wan_regions %d exceeds the network's %d routers; the bound is one region per router", regions, routers)
	}
	if regions == 0 {
		regions = genRegions
	}
	c := &Compiled{Request: req, Network: n, Params: netgen.SuiteParams{Regions: regions}}
	if s := req.Options.Solver; s != nil {
		b, err := solver.New(*s)
		if err != nil {
			return nil, RequestErrorf("plan: %v", err)
		}
		c.backend = b
	}
	for _, p := range req.Properties {
		suite, _ := netgen.Lookup(p.Name) // Validate checked the names
		if err := p.Scope().Validate(n, c.Params.EffectiveRegions()); err != nil {
			return nil, RequestErrorf("plan: property %q: %v", p.Name, err)
		}
		problems := suite.Problems(n, c.Params, p.Scope())
		// A scope whose dimensions are individually valid can still select
		// nothing in combination (e.g. wan-ip-reuse scoped to a region and
		// to routers inside that region); reject rather than pass vacuously.
		if len(problems) == 0 && !p.Scope().Empty() {
			return nil, RequestErrorf("plan: property %q: scope selects no problems on this network", p.Name)
		}
		c.Units = append(c.Units, Unit{Property: p, Suite: suite, Problems: problems})
	}
	if b := req.Options.Baseline; b != nil {
		bn, _, err := b.Materialize(res)
		if err != nil {
			return nil, fmt.Errorf("plan: baseline: %w", err)
		}
		// Scoped routers must exist in the baseline too, or a delta
		// verifier would silently build fewer problems on it.
		if err := c.ValidateScopes(bn); err != nil {
			return nil, RequestErrorf("plan: baseline: %v", strings.TrimPrefix(err.Error(), "plan: "))
		}
		c.Baseline = bn
	}
	return c, nil
}

// ValidateScopes re-checks every property's scope against another network
// state. Hosts that pin a compiled plan for incremental updates (lyserve
// sessions) call it on each new state, so a scoped router that vanishes
// from the network — or a scope combination that selects nothing there —
// is an error rather than a silently smaller, vacuously passing problem
// set.
func (c *Compiled) ValidateScopes(n *topology.Network) error {
	for _, u := range c.Units {
		sc := u.Property.Scope()
		if err := sc.Validate(n, c.Params.EffectiveRegions()); err != nil {
			return RequestErrorf("plan: property %q: %v", u.Property.Name, err)
		}
		if !sc.Empty() && len(u.Suite.Problems(n, c.Params, sc)) == 0 {
			return RequestErrorf("plan: property %q: scope selects no problems on this network", u.Property.Name)
		}
	}
	return nil
}

// Label implements delta.ProblemSource: the property list, comma-joined.
func (c *Compiled) Label() string {
	names := make([]string, len(c.Units))
	for i, u := range c.Units {
		names[i] = u.Property.Name
	}
	return strings.Join(names, ",")
}

// Problems implements delta.ProblemSource: every unit's scoped problems
// re-enumerated on n (the delta verifier calls this per pinned state).
func (c *Compiled) Problems(n *topology.Network) []netgen.Problem {
	var out []netgen.Problem
	for _, u := range c.Units {
		out = append(out, u.Suite.Problems(n, c.Params, u.Property.Scope())...)
	}
	return out
}

var _ delta.ProblemSource = (*Compiled)(nil)
