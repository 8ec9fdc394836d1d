// Package delta implements config-diff-driven incremental re-verification —
// the paper's §2 argument that modular decomposition makes re-verification
// after a configuration change proportional to the change, not the network,
// turned into a measurable artifact.
//
// A Verifier pins a baseline network state for a problem source (a registry
// suite, netgen.Lookup, or a compiled plan) and re-verifies successive
// states against it:
//
//	v := delta.NewVerifier(eng, suite, params)
//	base, _ := v.Baseline(oldNet) // full cold run, results retained by key
//	res, _ := v.Update(newNet)    // re-solves only the dirty subset
//
// Update computes the per-router/per-edge semantic diff between the pinned
// state and the new one (topology.DiffNetworks) and files every check of
// the new state by its semantic key (core.Check.Key): a check whose key
// already has a retained result is clean — equal keys decide the same
// formula — and is served without touching the engine; everything else is
// the dirty subset, submitted to the shared engine as one job per problem so
// cross-problem dedup still applies. The returned Result reports {changed
// routers, dirty checks, reused results, solved} alongside the per-problem
// reports.
//
// An update does not generate every check to find the few dirty ones. Each
// failures-only run keeps, per safety problem, a location index: the
// problem's frame digest (core.SafetyProblem.Frame — every input of its
// check keys but the per-edge policy fingerprints) and the kind and key of
// each check at each edge, never the checks or their obligations. When the
// diff changed only edge policies and a problem's frame equals that of the
// problem at its position, under its name, in the last run, its checks at
// unchanged edges keep their keys: Update serves them from the index and
// generates only the changed edges' checks and the implication check
// (core.SafetyProblem.ChecksAt). An edge whose retained result was Unknown
// (never retained) is generated and solved again. Liveness problems,
// results=all sessions, and any diff that adds, removes or changes a node
// or an edge enumerate in full. Either way the run reports the same
// numbers, the same failures and retains the same results.
//
// The Verifier's retained results live in process memory; pairing the
// engine with an internal/store persistent cache (engine.Options.Cache)
// additionally makes the dirty subset's solves survive restarts.
package delta

import (
	"context"
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
	Checks     int    `json:"checks"`
	Dirty      int    `json:"dirty"`  // checks submitted to the engine
	Reused     int    `json:"reused"` // results served from the pinned session
	OK         bool   `json:"ok"`

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

	// Unchanged marks the semantic no-op fast path: the update's network
	// fingerprints identically to the pinned state (e.g. a comment-only
	// config edit), so the previous run's verdicts were republished
	// without regenerating or re-solving a single check.
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
	results     map[string]*core.CheckResult
	index       []*problemIndex // per problem position; nil where not kept
	last        *Result         // last completed run, for the unchanged fast path
	served      int             // problems the last run served from an index

	full bool // never serve from an index (the reference tests compare with)
}

// problemIndex is what a run keeps of one safety problem for the next
// update's restricted enumeration: the problem's frame digest
// (core.SafetyProblem.Frame) and, per edge of the pinned network's
// PolicyIndex, the kind and key of each check generated there and the
// result the run retained for that key — never the checks or their
// obligations. fails holds the rendered description of every proven
// violation the run reported, so a reused failure reads as it did.
type problemIndex struct {
	name  string
	frame spec.Fingerprint
	// checks lists the edge checks in enumeration order; the i-th edge's
	// are checks[at[i]:at[i+1]].
	checks []indexEntry
	at     []int32
	fails  map[checkAt]core.Desc
}

type indexEntry struct {
	kind core.CheckKind
	key  string
	res  *core.CheckResult // the Verifier's retained result for key; nil if undecided
}

// checkAt names a safety check within its problem: one per kind and location.
type checkAt struct {
	loc  core.Location
	kind core.CheckKind
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
// whose semantic key has no retained result are re-solved. On return n is
// the pinned state. Update before Baseline is an error.
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

// problemRun carries one problem through the prepare → submit → wait
// pipeline.
type problemRun struct {
	outcome ProblemOutcome
	prop    core.Property
	dirty   []core.Check
	reused  []core.CheckResult // reused results the report materialises
	folded  core.Folded        // reused OK results it only counts (failures-only reports)
	job     *engine.Job
	start   time.Time
	index   *problemIndex // kept for the next update (failures-only safety problems)
	old     *problemIndex // the last run's index this run is served from, if any
	// dirtyAt is, with an index, the entry of each dirty check in
	// index.checks (-1 for the implication check), where its result goes.
	dirtyAt []int32
}

// run is the shared Baseline/Update body; v.runMu is held, so prev,
// prevResults and prevIndex are stable. v.mu is only taken briefly at the
// end to publish the new pinned state, keeping the state accessors
// responsive while the run waits on the engine. The whole run is admitted as
// one unit: the sum of all problems' dirty checks is reserved against the
// session's tenant before anything is submitted, so an over-quota
// incremental run fails with engine.ErrAdmission instead of half-running.
func (v *Verifier) run(prev *topology.Network, prevResults map[string]*core.CheckResult,
	prevIndex []*problemIndex, n *topology.Network, baseline bool) (*Result, error) {
	start := time.Now()
	res := &Result{Suite: v.source.Label(), Baseline: baseline, Fingerprint: n.Fingerprint(), OK: true}
	if !baseline {
		res.Diff = topology.DiffNetworks(prev, n)
		res.ChangedRouters = changedRouters(res.Diff, prev, n)
		if r, ok := v.unchangedResult(res, prev); ok {
			r.ElapsedNanos = time.Since(start).Nanoseconds()
			return r, nil
		}
	}

	problems := v.source.Problems(n)
	runs := make([]*problemRun, len(problems))
	opts := v.eng.CheckOptions()
	// Only failures-only runs keep a location index: a reused passing check
	// is then counted, never shown, so an update can serve it without
	// generating it.
	failuresOnly := v.workload.Results == engine.ResultsFailures
	var changed []int // positions of the diff's changed edges in n's PolicyIndex
	restrict := failuresOnly && prevIndex != nil && !v.full
	if restrict {
		changed, restrict = changedPositions(res.Diff, n)
	}

	// The results this run retains, re-indexed from scratch so entries for
	// removed locations do not accumulate: reused ones are carried over
	// here, fresh ones arrive from the engine's workers as they complete.
	// Retained results carry no identity (it is re-stamped on reuse), so they
	// do not keep this state's network or obligations alive.
	var retainedMu sync.Mutex
	retained := make(map[string]*core.CheckResult, len(prevResults))

	// Prepare every problem: generate its checks — all of them, or, served
	// from an index, those of the changed edges — and split them into the
	// reused and dirty subsets. The summed dirty cost is this run's
	// admission unit.
	dirtyCost := 0
	for i, p := range problems {
		pr := &problemRun{outcome: ProblemOutcome{Name: p.Name}, start: time.Now()}
		runs[i] = pr
		// Every failures-only safety problem over n keeps an index; on an
		// update whose diff only changed edge policies, one whose frame
		// equals that of the problem at its position in the last run, under
		// the same name, is served from that run's index.
		if failuresOnly && p.Safety != nil && p.Safety.Network == n {
			pr.index = &problemIndex{name: p.Name, frame: p.Safety.Frame()}
			if restrict && i < len(prevIndex) {
				old := prevIndex[i]
				if old != nil && old.name == p.Name && old.frame == pr.index.frame && len(old.at) == len(n.Index().Edges)+1 {
					pr.old = old
				}
			}
		}
		// take files one generated check as reused or dirty, and its
		// result under entry of the index, if it has one there (>= 0).
		take := func(c core.Check, entry int) {
			pr.outcome.Checks++
			r, ok := prevResults[c.Key()]
			if !ok || c.Key() == "" {
				pr.dirty = append(pr.dirty, c)
				if pr.index != nil {
					pr.dirtyAt = append(pr.dirtyAt, int32(entry))
				}
				return
			}
			if entry >= 0 {
				pr.index.checks[entry].res = r
			}
			pr.reuse(retained, c.Key(), r, c.Kind, c.Loc, c.Desc, failuresOnly)
		}
		var err error
		switch {
		case p.Safety != nil:
			pr.prop = p.Safety.Property
			if pr.index == nil {
				for _, c := range p.Safety.Checks(opts) {
					take(c, -1)
				}
				break
			}
			pr.enumerate(p.Safety, opts, changed, retained, take)
		case p.Liveness != nil:
			pr.prop = p.Liveness.Property
			var checks []core.Check
			checks, err = p.Liveness.Checks(opts)
			for _, c := range checks {
				take(c, -1)
			}
		default:
			err = fmt.Errorf("suite produced an empty problem")
		}
		if err != nil {
			if p.Optional {
				pr.outcome.Skipped = true
			} else {
				pr.outcome.Failed = true
				res.OK = false
				res.Failures++
			}
			pr.outcome.SkipReason = err.Error()
			continue
		}
		pr.outcome.Dirty = len(pr.dirty)
		res.TotalChecks += pr.outcome.Checks
		res.DirtyChecks += len(pr.dirty)
		res.ReusedResults += pr.outcome.Reused
		dirtyCost += len(pr.dirty)
	}

	resv := v.resv
	if resv == nil {
		owned, err := v.eng.Reserve(v.workload.Tenant, dirtyCost)
		if err != nil {
			return nil, err
		}
		defer owned.Release()
		resv = owned
	}

	// Submit the dirty subset of every problem before waiting on any, so
	// the engine dedups identical dirty checks across the whole suite.
	for _, pr := range runs {
		if pr.outcome.Skipped || pr.outcome.Failed {
			continue
		}
		dirty, index, dirtyAt := pr.dirty, pr.index, pr.dirtyAt
		wl := v.workload
		wl.Kind = engine.KindChecks
		wl.Property = pr.prop
		wl.Checks = dirty
		wl.Reservation = resv
		wl.OnResult = func(p engine.Progress) {
			// Unknown is not a verdict: retaining it would freeze
			// "insufficient budget" as the key's answer across updates.
			// Equal keys decide alike, so the first verdict is kept.
			if key := dirty[p.Index].Key(); key != "" && p.Result.Status != core.StatusUnknown {
				retainedMu.Lock()
				r, ok := retained[key]
				if !ok {
					anon := p.Result.Anonymous()
					r = &anon
					retained[key] = r
				}
				if index != nil && dirtyAt[p.Index] >= 0 {
					index.checks[dirtyAt[p.Index]].res = r
				}
				retainedMu.Unlock()
			}
		}
		job, err := v.eng.Submit(context.Background(), wl)
		if err != nil {
			pr.outcome.Failed = true
			pr.outcome.SkipReason = err.Error()
			res.OK = false
			res.Failures++
			continue
		}
		pr.job = job
	}

	// Collect and merge reused + fresh.
	for _, pr := range runs {
		if pr.job == nil {
			res.Problems = append(res.Problems, pr.outcome)
			continue
		}
		fresh := pr.job.Wait()
		st := pr.job.Stats()
		res.Solved += st.Checks - st.CacheHits - st.DedupHits
		rep := core.NewReport(pr.prop, append(pr.reused, fresh.Results...), time.Since(pr.start))
		rep.Folded = fresh.Folded
		rep.Folded.Merge(pr.folded)
		pr.outcome.Report = rep
		pr.outcome.OK = rep.OK()
		hard := rep.HardFailures()
		if pr.index != nil && len(hard) > 0 {
			pr.index.fails = make(map[checkAt]core.Desc, len(hard))
			for _, r := range hard {
				pr.index.fails[checkAt{r.Loc, r.Kind}] = r.Desc.Rendered()
			}
		}
		res.Failures += len(hard)
		res.Unknown += len(rep.Unknowns())
		if !pr.outcome.OK {
			res.OK = false
		}
		res.Problems = append(res.Problems, pr.outcome)
	}

	index := make([]*problemIndex, len(runs))
	served := 0
	for i, pr := range runs {
		if pr.job != nil {
			index[i] = pr.index
		}
		if pr.old != nil {
			served++
		}
	}
	v.mu.Lock()
	v.results = retained
	v.index, v.served = index, served
	v.network = n
	v.fingerprint = res.Fingerprint
	v.last = res
	v.mu.Unlock()
	res.ElapsedNanos = time.Since(start).Nanoseconds()
	return res, nil
}

// reuse serves a retained result for the check at (kind, loc) with key:
// the result is retained again, counted, and — unless a failures-only run
// only folds it — stamped with the check's identity.
func (pr *problemRun) reuse(retained map[string]*core.CheckResult, key string, r *core.CheckResult,
	kind core.CheckKind, loc core.Location, desc core.Desc, failuresOnly bool) {
	retained[key] = r
	pr.outcome.Reused++
	if failuresOnly && r.OK {
		pr.folded.Add(r)
		return
	}
	out := *r
	out.Kind, out.Loc, out.Desc = kind, loc, desc
	if failuresOnly {
		out.Desc = desc.Rendered()
	}
	pr.reused = append(pr.reused, out)
}

// enumerate files a failures-only safety problem's checks through take and
// records them in pr.index. With no old index it generates every check.
// With one — the same problem, an equal frame, and an update whose diff
// changed edge policies only — it regenerates the changed edges, any edge
// whose retained results cannot all be served (an Unknown was not retained,
// or a failure's description is missing) and the implication check; every
// other edge's checks are served by the keys the old index holds, without
// being generated. Equal frames and equal policy fingerprints give those
// edges the keys they had, so both ways file the same checks, and the
// dirty ones in the same order.
func (pr *problemRun) enumerate(p *core.SafetyProblem, opts core.Options, changed []int,
	retained map[string]*core.CheckResult, take func(core.Check, int)) {
	edges := p.Network.Index().Edges
	idx, old := pr.index, pr.old
	idx.at = make([]int32, len(edges)+1)
	if old == nil {
		checks := p.Checks(opts)
		edgeChecks := checks[:len(checks)-1] // the implication check is last
		idx.checks = make([]indexEntry, len(edgeChecks))
		k := 0
		for i, e := range edges {
			for loc := core.AtEdge(e); k < len(edgeChecks) && edgeChecks[k].Loc == loc; k++ {
				idx.checks[k] = indexEntry{kind: edgeChecks[k].Kind, key: edgeChecks[k].Key()}
			}
			idx.at[i+1] = int32(k)
		}
		if k != len(edgeChecks) {
			pr.index = nil // not in edge order: keep no index, enumerate in full next time
		}
		for i, c := range checks {
			if i == len(edgeChecks) || pr.index == nil {
				i = -1
			}
			take(c, i)
		}
		return
	}

	regen := make([]int, 0, len(changed))
	for i, c := 0, 0; i < len(edges); i++ {
		if c < len(changed) && changed[c] == i {
			c++
		} else if pr.serve(old, i, edges[i], retained) {
			continue
		}
		regen = append(regen, i)
	}
	fresh := p.ChecksAt(opts, regen)
	idx.checks = make([]indexEntry, 0, len(old.checks))
	f := 0
	for i, e := range edges {
		if len(regen) > 0 && regen[0] == i {
			regen = regen[1:]
			for loc := core.AtEdge(e); f < len(fresh)-1 && fresh[f].Loc == loc; f++ {
				idx.checks = append(idx.checks, indexEntry{kind: fresh[f].Kind, key: fresh[f].Key()})
				take(fresh[f], len(idx.checks)-1)
			}
		} else {
			idx.checks = append(idx.checks, old.checks[old.at[i]:old.at[i+1]]...)
		}
		idx.at[i+1] = int32(len(idx.checks))
	}
	take(fresh[len(fresh)-1], -1)
}

// serve reuses every check the old index holds at edge e, the i-th edge, if
// all of them can be: each has a retained result (the Verifier's for its
// key, which the index entry points at), and each failure its description.
// Otherwise it serves none.
func (pr *problemRun) serve(old *problemIndex, i int, e topology.Edge, retained map[string]*core.CheckResult) bool {
	group := old.checks[old.at[i]:old.at[i+1]]
	loc := core.AtEdge(e)
	for _, en := range group {
		if en.res == nil {
			return false
		}
		if !en.res.OK {
			if _, ok := old.fails[checkAt{loc, en.kind}]; !ok {
				return false
			}
		}
	}
	for _, en := range group {
		pr.outcome.Checks++
		var desc core.Desc
		if !en.res.OK {
			desc = old.fails[checkAt{loc, en.kind}]
		}
		pr.reuse(retained, en.key, en.res, en.kind, loc, desc, true)
	}
	return true
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

// unchangedResult implements the semantic no-op fast path for Update: when
// the new network fingerprints identically to the pinned state — a
// comment-only or whitespace-only config edit parses to the very same
// network — the previous run's verdicts still hold verbatim, so they are
// republished without regenerating checks, reserving quota, or touching
// the engine. res must already carry the new fingerprint and (empty) diff.
// The path is skipped while the last run has undecided checks: Unknown is
// not a verdict, and an update is the caller's chance to re-solve it.
func (v *Verifier) unchangedResult(res *Result, prev *topology.Network) (*Result, bool) {
	if res.Fingerprint != prev.Fingerprint() || !res.Diff.Empty() {
		return nil, false
	}
	v.mu.Lock()
	last := v.last
	v.mu.Unlock()
	if last == nil || last.Unknown > 0 {
		return nil, false
	}
	// A no-op update is still a run charged to the session's tenant: the
	// zero-cost reservation keeps per-tenant admission accounting (and
	// quota rejections) identical to the slow path's empty dirty set. On
	// admission error, fall through — the slow path reserves the same cost
	// and surfaces the same error. Under an external reservation the whole
	// workload is already admitted, so there is nothing to charge.
	if v.resv == nil {
		resv, err := v.eng.Reserve(v.workload.Tenant, 0)
		if err != nil {
			return nil, false
		}
		resv.Release()
	}
	res.Unchanged = true
	res.OK = last.OK
	res.Failures = last.Failures
	res.TotalChecks = last.TotalChecks
	res.ReusedResults = last.TotalChecks
	res.Problems = make([]ProblemOutcome, len(last.Problems))
	copy(res.Problems, last.Problems)
	for i := range res.Problems {
		res.Problems[i].Dirty = 0
		res.Problems[i].Reused = res.Problems[i].Checks
	}
	v.mu.Lock()
	v.last = res
	v.mu.Unlock()
	return res, true
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
