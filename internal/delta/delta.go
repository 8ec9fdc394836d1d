// Package delta implements config-diff-driven incremental re-verification —
// the paper's §2 argument that re-verification after a configuration change
// costs work proportional to the change, not the network — and the one loop
// every verification run goes through.
//
// A Verifier pins a baseline network state for a problem source (a registry
// suite, netgen.Lookup, or a compiled plan) and re-verifies successive
// states against it:
//
//	v := delta.NewVerifier(eng, suite, params)
//	base, _ := v.Baseline(oldNet) // full cold run, results retained by key
//	res, _ := v.Update(newNet)    // re-solves only the dirty subset
//
// Update diffs the pinned state against the new one (topology.DiffNetworks)
// and files every check of the new state by its semantic key: a check whose
// key has a retained result is served without touching the engine — equal
// keys decide the same formula — and the rest is the dirty subset. Result
// reports {changed routers, dirty checks, reused results, solved}. An edit
// that changes nothing, such as a comment-only config edit, diffs empty and
// has every check served; its result says Unchanged.
//
// Every run — Baseline, Update, and the one-shot Run that internal/plan
// executes a plan with — walks its problems in order, generating and
// splitting their checks into a batch of BatchChecks dirty checks,
// submitting it as one engine job per problem, and collecting problems
// oldest-first until no more than a batch is outstanding before it
// generates the next; peak memory follows a batch, not the run. A run is
// admitted before it submits anything: Run and Baseline at their counted
// cost before generating a check, Update at its dirty count. Run retains
// nothing; Hooks report each problem's start, checks and outcome.
//
// A run generates each problem family's edge checks once. Suites pose one
// safety problem at many locations (core.SafetyProblem.At), and every
// problem so posed shares its Family's network, predicate, invariants and
// ghosts, so all of them pose the same edge checks: a run generates them
// (core.SafetyProblem.EdgeChecks) for the family's first problem and
// submits them again, with each problem's own implication check
// (core.SafetyProblem.ImplicationCheck), for the problems that follow it.
// Suites emit a family's problems together, so a run remembers only the
// last family, by identity. Sharing changes what is generated, not what is
// submitted: the engine's cache and in-flight dedup decide the repeats.
// Only a failures-only Verifier run digests a family
// (core.SafetyProblem.Frame), once, to find the index its last run kept
// for the family's frame.
//
// An update does not generate every check to find the few dirty ones. A
// failures-only run keeps one location index per edge frame, built by the
// first safety problem of that frame: per edge, the retained result of
// each check there that passed, never the checks. When the diff changed
// only edge policies, every problem whose frame had an index in the last
// run is served from it: an unchanged edge whose checks all passed is
// folded without being generated, and the changed edges, every edge that
// held a failure or an Unknown, and the implication check are generated
// again — the edges once per family — so a reused failure reads as the
// regenerated check describes it. Liveness problems, results=all sessions
// and any other diff enumerate in full, with the same numbers, failures and
// retained results.
//
// Retained results live in process memory; an internal/store persistent
// cache behind the engine (engine.Options.Cache) makes the dirty subset's
// solves survive restarts as well.
package delta

import (
	"fmt"
	"sync"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/spec"
	"lightyear/internal/store"
	"lightyear/internal/topology"
)

// Store must keep satisfying the engine's cache seam: the CLI and lyserve
// plug it in behind the same engines delta runs on.
var _ engine.ResultCache = (*store.Store)(nil)

// ProblemOutcome is the per-problem record of one delta run.
type ProblemOutcome struct {
	Name       string `json:"name"`
	Skipped    bool   `json:"skipped,omitempty"`
	Failed     bool   `json:"failed,omitempty"`
	SkipReason string `json:"skip_reason,omitempty"`
	// Err is the error behind SkipReason, for errors.Is (e.g.
	// engine.ErrClosed).
	Err    error `json:"-"`
	Checks int   `json:"checks"`
	Dirty  int   `json:"dirty"`  // checks submitted to the engine
	Reused int   `json:"reused"` // results served from the pinned session
	OK     bool  `json:"ok"`

	// Report is the assembled verification report (nil when skipped or
	// failed); encode with engine.EncodeReport for the wire.
	Report *core.Report `json:"-"`
}

// Result summarizes one Baseline or Update run.
type Result struct {
	Suite       string `json:"suite"`
	Baseline    bool   `json:"baseline"`
	Fingerprint string `json:"fingerprint"` // network state verified

	// Diff is the structural change from the previously pinned state
	// (nil on baseline runs).
	Diff           *topology.NetworkDiff `json:"diff,omitempty"`
	ChangedRouters []topology.NodeID     `json:"changed_routers,omitempty"`

	TotalChecks   int  `json:"total_checks"`
	DirtyChecks   int  `json:"dirty_checks"`       // submitted to the engine
	ReusedResults int  `json:"reused_results"`     // served from the session's retained results
	Solved        int  `json:"solved"`             // actually executed (after engine cache/dedup)
	Failures      int  `json:"failures,omitempty"` // proven violations (+ unsubmittable problems)
	Unknown       int  `json:"unknown,omitempty"`  // undecided checks (budget exhausted)
	OK            bool `json:"ok"`

	// Unchanged marks an update that changed nothing: its network diffs
	// empty from the pinned state (e.g. a comment-only config edit) and
	// every check was served from retained results, none submitted. After
	// a run with undecided checks an update is not unchanged: Unknowns are
	// never retained, so they re-solve as dirty.
	Unchanged bool `json:"unchanged,omitempty"`

	ElapsedNanos int64            `json:"elapsed_ns"`
	Problems     []ProblemOutcome `json:"problems"`
}

// Elapsed returns the run's wall-clock duration.
func (r *Result) Elapsed() time.Duration { return time.Duration(r.ElapsedNanos) }

// String renders the one-line incremental summary.
func (r *Result) String() string {
	mode := "update"
	if r.Baseline {
		mode = "baseline"
	}
	return fmt.Sprintf("delta %s: %d routers changed, %d/%d checks dirty, %d reused, %d solved, ok=%v in %v",
		mode, len(r.ChangedRouters), r.DirtyChecks, r.TotalChecks, r.ReusedResults, r.Solved, r.OK,
		r.Elapsed().Round(time.Millisecond))
}

// ProblemSource enumerates the verification problems implied by a network
// state — the seam that lets both registry suites and compiled plans
// (internal/plan) drive incremental re-verification. Problems must be
// re-enumerable on every state the Verifier is asked to pin: the Verifier
// calls Problems once per Baseline/Update with the new network.
type ProblemSource interface {
	// Label names the source in results (a suite name, or a plan's
	// property list).
	Label() string
	// Problems builds the source's problems over n.
	Problems(n *topology.Network) []netgen.Problem
}

// suiteSource adapts a registry suite to the ProblemSource seam.
type suiteSource struct {
	suite  netgen.Suite
	params netgen.SuiteParams
}

func (s suiteSource) Label() string { return s.suite.Name }
func (s suiteSource) Problems(n *topology.Network) []netgen.Problem {
	return s.suite.Build(n, s.params)
}

// SuiteSource wraps a registry suite as a ProblemSource.
func SuiteSource(suite netgen.Suite, params netgen.SuiteParams) ProblemSource {
	return suiteSource{suite: suite, params: params}
}

// Verifier is a long-lived incremental verification session: a problem
// source, an engine, the currently pinned network state, and the check
// results retained from the last run, keyed by semantic check key. Runs are
// serialized; the Verifier is safe for concurrent use, and the state
// accessors (Fingerprint, ResultCount) never block behind a run in
// progress — they observe the last completed run.
type Verifier struct {
	eng    *engine.Engine
	source ProblemSource
	// workload is the engine.Workload template (tenant, priority, solver
	// backend) every dirty-subset submission inherits; its payload fields
	// are filled per problem.
	workload engine.Workload

	runMu sync.Mutex // serializes Baseline/Update
	// resv, when set, is an externally held admission reservation every run
	// executes under instead of reserving its own dirty cost — the seam
	// internal/migrate uses to admit a whole N-step plan as one unit.
	resv *engine.Reservation

	mu          sync.Mutex // guards the pinned state below
	network     *topology.Network
	fingerprint string
	results     map[string]*kept
	index       map[spec.Fingerprint]*frameIndex // per edge frame
	served      int                              // problems the last run served from an index

	full  bool  // never serve from an index (the reference tests compare with)
	hooks Hooks // observe every run (tests)
}

// frameIndex is what a run keeps of one edge frame for the next update's
// restricted enumeration: per edge of the pinned network's PolicyIndex, the
// result the run retained for each check generated there, if it passed —
// never the checks or their obligations. Served results are only folded,
// so nothing else is needed.
type frameIndex struct {
	// results lists the edge checks' results in enumeration order, nil
	// where a check failed or was undecided; the i-th edge's are
	// results[at[i]:at[i+1]].
	results []*kept
	at      []int32
}

// kept is a retained result and the key it is retained under. Index
// entries point at it instead of each holding the key: a run retains one
// result per distinct key, and indexes one entry per check.
type kept struct {
	key string
	core.CheckResult
}

// NewVerifier creates a session for the given suite on the shared engine.
// Call Baseline before Update.
func NewVerifier(eng *engine.Engine, suite netgen.Suite, params netgen.SuiteParams) *Verifier {
	return NewVerifierFor(eng, SuiteSource(suite, params))
}

// NewVerifierFor creates a session for an arbitrary problem source — the
// entry point internal/plan uses so incremental runs inherit a plan's
// property list and scoping. Call Baseline before Update.
func NewVerifierFor(eng *engine.Engine, source ProblemSource) *Verifier {
	return &Verifier{eng: eng, source: source}
}

// SetWorkload sets the engine.Workload template — the tenant the session's
// runs are admitted under, their priority, and per-job engine overrides
// (e.g. the solver backend a plan request selected) — applied to every
// dirty-subset submission this verifier makes; payload fields (Kind,
// Safety, Liveness, Checks, Property) and any Reservation are cleared, the
// verifier supplies its own per problem. Call before the first Baseline.
// lyserve sessions set it from the pinned plan, so every incremental
// update inherits the session's tenant.
func (v *Verifier) SetWorkload(w engine.Workload) {
	w.Kind, w.Safety, w.Liveness, w.Checks = "", nil, nil, nil
	w.Property, w.Reservation = core.Property{}, nil
	v.workload = w
}

// SetReservation supplies an externally held admission reservation. While
// set, Baseline and Update submit their dirty subsets under it instead of
// reserving their own cost per run — the caller has already admitted the
// whole workload (e.g. a migration plan reserves its full baseline cost
// once, since its sequential steps never hold more than that in flight) and
// remains responsible for releasing it. Pass nil to restore per-run
// reservations. Must not be called while a run is in progress.
func (v *Verifier) SetReservation(resv *engine.Reservation) {
	v.runMu.Lock()
	v.resv = resv
	v.runMu.Unlock()
}

// Tenant returns the tenant the session's runs are admitted under.
func (v *Verifier) Tenant() string { return engine.NormalizeTenant(v.workload.Tenant) }

// Fingerprint returns the fingerprint of the pinned network state ("" before
// Baseline).
func (v *Verifier) Fingerprint() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.fingerprint
}

// ResultCount returns the number of retained check results.
func (v *Verifier) ResultCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.results)
}

// PinnedNetwork returns the currently pinned network state (nil before
// Baseline) — the state a plan's "baseline" network reference resolves to.
func (v *Verifier) PinnedNetwork() *topology.Network {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.network
}

// Baseline pins n as the session's network state and verifies it in full,
// retaining every cacheable result for later Updates.
func (v *Verifier) Baseline(n *topology.Network) (*Result, error) {
	v.runMu.Lock()
	defer v.runMu.Unlock()
	return v.run(nil, nil, nil, n, true)
}

// Update verifies n incrementally against the pinned state: only checks
// whose semantic key has no retained result are re-solved; an update whose
// diff is empty and that re-solves nothing reports Result.Unchanged. On
// return n is the pinned state. Update before Baseline is an error.
func (v *Verifier) Update(n *topology.Network) (*Result, error) {
	v.runMu.Lock()
	defer v.runMu.Unlock()
	v.mu.Lock()
	prev, prevResults, prevIndex := v.network, v.results, v.index
	v.mu.Unlock()
	if prev == nil {
		return nil, fmt.Errorf("delta: Update before Baseline")
	}
	return v.run(prev, prevResults, prevIndex, n, false)
}

// run is the shared Baseline/Update body; v.runMu is held, so prev,
// prevResults and prevIndex are stable. v.mu is only taken briefly at the
// end to publish the new pinned state, keeping the state accessors
// responsive while the run waits on the engine. The run is admitted as one
// unit before anything is submitted: a baseline at its counted cost, before
// it generates anything; an update at its dirty count, once every problem
// is split — so an over-quota run fails with engine.ErrAdmission instead of
// half-running.
func (v *Verifier) run(prev *topology.Network, prevResults map[string]*kept,
	prevIndex map[spec.Fingerprint]*frameIndex, n *topology.Network, baseline bool) (*Result, error) {
	start := time.Now()
	res := &Result{Suite: v.source.Label(), Baseline: baseline, Fingerprint: n.Fingerprint(), OK: true}
	if !baseline {
		res.Diff = topology.DiffNetworks(prev, n)
		res.ChangedRouters = changedRouters(res.Diff, prev, n)
	}

	problems := v.source.Problems(n)
	r := &runner{
		eng: v.eng, wl: v.workload, hooks: v.hooks, res: res,
		keep: true, failuresOnly: v.workload.Results == engine.ResultsFailures, n: n,
		prevResults: prevResults, prevIndex: prevIndex,
		retained: make(map[string]*kept, len(prevResults)),
		index:    make(map[spec.Fingerprint]*frameIndex),
	}
	if r.failuresOnly && len(prevIndex) > 0 && !v.full {
		r.changed, r.restrict = changedPositions(res.Diff, n)
	}
	var prepared []*problemRun
	cost := CountChecks(problems)
	if !baseline {
		prepared, cost = make([]*problemRun, len(problems)), 0
		for i, p := range problems {
			prepared[i] = r.prepare(i, p)
			cost += len(prepared[i].dirty)
		}
	}
	release, err := r.admit(v.resv, cost)
	if err != nil {
		return nil, err
	}
	defer release()
	r.stream(problems, prepared)
	res.Unchanged = !baseline && res.Diff.Empty() && res.DirtyChecks == 0

	v.mu.Lock()
	v.results = r.retained
	v.index, v.served = r.index, r.served
	v.network = n
	v.fingerprint = res.Fingerprint
	v.mu.Unlock()
	res.ElapsedNanos = time.Since(start).Nanoseconds()
	return res, nil
}

// changedPositions returns the positions, in n's PolicyIndex, of the edges
// a diff changed, and whether the diff changed nothing else — the shape an
// update can re-enumerate edge by edge.
func changedPositions(d *topology.NetworkDiff, n *topology.Network) ([]int, bool) {
	if len(d.AddedNodes)+len(d.RemovedNodes)+len(d.ChangedNodes)+len(d.AddedEdges)+len(d.RemovedEdges) > 0 {
		return nil, false
	}
	pos := make([]int, 0, len(d.ChangedEdges))
	for i, e := range n.Index().Edges {
		if len(pos) < len(d.ChangedEdges) && d.ChangedEdges[len(pos)] == e {
			pos = append(pos, i)
		}
	}
	return pos, len(pos) == len(d.ChangedEdges)
}

// changedRouters filters the diff's touched nodes to configured routers of
// either network state — the paper's "when a node is updated" unit of
// change.
func changedRouters(d *topology.NetworkDiff, old, new *topology.Network) []topology.NodeID {
	var out []topology.NodeID
	for _, id := range d.TouchedNodes() {
		if isRouter(new, id) || isRouter(old, id) {
			out = append(out, id)
		}
	}
	return out
}

func isRouter(n *topology.Network, id topology.NodeID) bool {
	node := n.Node(id)
	return node != nil && !node.External
}

// DirtyConsistent cross-checks a diff against a dirty check subset using
// core.PartitionChecks: it returns an error if any cacheable dirty check
// sits at a location the diff does not touch. It is a sanity invariant for
// tests and experiments — semantic keys, not locations, decide dirtiness,
// and this verifies the two views agree.
func DirtyConsistent(d *topology.NetworkDiff, dirty []core.Check) error {
	offending, _ := core.PartitionChecks(dirty, func(loc core.Location) bool {
		if loc.IsEdge() {
			return !d.Touches(loc.Edge())
		}
		for _, id := range d.TouchedNodes() {
			if id == loc.Router() {
				return false
			}
		}
		// Router locations (the final implication check) have no edge to
		// attribute the change to; treat them as always consistent.
		return false
	})
	for _, c := range offending {
		if c.Key() != "" {
			return fmt.Errorf("delta: dirty check %q at untouched location %s", c.Desc, c.Loc)
		}
	}
	return nil
}
