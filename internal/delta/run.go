package delta

import (
	"context"
	"errors"
	"sync"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/telemetry"
	"lightyear/internal/topology"
)

// BatchChecks is how many dirty checks a run generates before submitting
// them, and how many may stay outstanding while it generates the next
// batch, so peak memory follows it rather than the run's size. A batch is
// submitted back to back: generating between submits would interleave
// concurrent runs' problems in their tenant's FIFO queue.
const BatchChecks = 1 << 16

// Hooks observe a run problem by problem; i indexes the run's problem list.
type Hooks struct {
	// Begin is called in order as each problem's turn to be submitted
	// comes, with o.Dirty the count about to be submitted, or o.Skipped or
	// o.Failed set when its checks could not be generated. A span it
	// returns parents the problem's engine work.
	Begin func(i int, o *ProblemOutcome) *telemetry.Span
	// Check observes each completed check; engine workers call it.
	Check func(i int, p engine.Progress)
	// Done is called in order with each problem's outcome and its job's
	// accounting (nil when it had no job).
	Done func(i int, o *ProblemOutcome, st *engine.JobStats)
}

// Run verifies problems once, each submission inheriting wl, and retains
// nothing: no results, no location index, no pinned state. It runs under
// resv, or, when that is nil, under a grant of the problems' counted cost
// reserved before any check is generated.
func Run(eng *engine.Engine, problems []netgen.Problem, wl engine.Workload, resv *engine.Reservation, h Hooks) (*Result, error) {
	r := &runner{eng: eng, wl: wl, hooks: h, res: &Result{OK: true}}
	release, err := r.admit(resv, CountChecks(problems))
	if err != nil {
		return nil, err
	}
	defer release()
	r.stream(problems, nil)
	return r.res, nil
}

// runner is one pass of the loop over a problem list: it generates each
// problem's checks, splits them into reused and dirty, submits the dirty
// ones a batch at a time and collects the problems in order.
type runner struct {
	eng   *engine.Engine
	wl    engine.Workload
	resv  *engine.Reservation
	hooks Hooks
	res   *Result

	// The rest is a Verifier's; a one-shot run (keep false) retains nothing.
	keep, failuresOnly bool
	n                  *topology.Network
	prevResults        map[string]*kept
	prevIndex          []*problemIndex
	changed            []int // positions of the diff's changed edges in n's PolicyIndex
	restrict           bool  // the diff changed edge policies only: serve from prevIndex

	// retained is rebuilt each run, so results of removed locations do not
	// accumulate: reused results are carried over as problems are split,
	// fresh ones arrive from engine workers under mu. Only updates reuse,
	// and they split every problem before submitting any, so splitting
	// takes no lock.
	mu       sync.Mutex
	retained map[string]*kept
	index    []*problemIndex // per problem position; nil where not kept
	served   int
}

// problemRun carries one problem from generation to collection.
type problemRun struct {
	i       int
	outcome ProblemOutcome
	prop    core.Property
	dirty   []core.Check
	reused  []core.CheckResult // reused results the report materialises
	folded  core.Folded        // reused OK results it only counts (failures-only reports)
	job     *engine.Job        // nil when not generated or not submitted
	span    *telemetry.Span
	index   *problemIndex // kept for the next update (failures-only safety problems)
	old     *problemIndex // the last run's index this run is served from, if any
	dirtyAt []int32       // with an index, each dirty check's entry in it (-1: the implication check)
}

var errEmptyProblem = errors.New("suite produced an empty problem")

// Generate builds one problem's checks.
func Generate(p netgen.Problem) (core.Property, []core.Check, error) {
	switch {
	case p.Safety != nil:
		return p.Safety.Property, p.Safety.Checks(core.Options{}), nil
	case p.Liveness != nil:
		checks, err := p.Liveness.Checks(core.Options{})
		return p.Liveness.Property, checks, err
	}
	return core.Property{}, nil, errEmptyProblem
}

// NumChecks counts what Generate would build for p, generating nothing.
func NumChecks(p netgen.Problem) (int, error) {
	switch {
	case p.Safety != nil:
		return p.Safety.NumChecks(), nil
	case p.Liveness != nil:
		return p.Liveness.NumChecks()
	}
	return 0, errEmptyProblem
}

// CountChecks is the admission cost of a full run over problems; those
// whose checks cannot be generated count nothing and fail in their turn.
func CountChecks(problems []netgen.Problem) int {
	cost := 0
	for _, p := range problems {
		if n, err := NumChecks(p); err == nil {
			cost += n
		}
	}
	return cost
}

// admit makes resv, or else a grant of cost it reserves, the run's
// reservation, and returns what releases the grant it owns.
func (r *runner) admit(resv *engine.Reservation, cost int) (func(), error) {
	if resv != nil {
		r.resv = resv
		return func() {}, nil
	}
	owned, err := r.eng.Reserve(r.wl.Tenant, cost)
	r.resv = owned
	return owned.Release, err
}

// stream runs the loop. prepared, when non-nil, holds every problem
// already split: an update's, split to size its admission.
func (r *runner) stream(problems []netgen.Problem, prepared []*problemRun) {
	var batch, queue []*problemRun // split, not submitted; submitted, not collected
	batched, outstanding := 0, 0
	// flush submits the batch, then collects oldest-first while more than
	// BatchChecks checks are outstanding — or, at the end, all.
	flush := func(final bool) {
		for _, pr := range batch {
			if r.submit(pr); pr.job != nil {
				outstanding += pr.outcome.Dirty
			}
		}
		queue, batch, batched = append(queue, batch...), batch[:0], 0
		for len(queue) > 0 && (final || outstanding > BatchChecks || queue[0].job == nil) {
			if queue[0].job != nil {
				outstanding -= queue[0].outcome.Dirty
			}
			r.collect(queue[0])
			queue[0], queue = nil, queue[1:]
		}
	}
	for i, p := range problems {
		var pr *problemRun
		if prepared == nil {
			pr = r.prepare(i, p)
		} else {
			pr, prepared[i] = prepared[i], nil
		}
		batch, batched = append(batch, pr), batched+len(pr.dirty)
		if batched >= BatchChecks {
			flush(false)
		}
	}
	flush(true)
}

// prepare generates problem i's checks — all of them, or, served from an
// index, those of the changed edges — and splits them into the reused and
// dirty subsets.
func (r *runner) prepare(i int, p netgen.Problem) *problemRun {
	pr := &problemRun{i: i, outcome: ProblemOutcome{Name: p.Name}}
	// Only failures-only runs keep a location index: a reused passing check
	// is then counted, never shown, so an update can serve it without
	// generating it. A problem whose frame equals that of the problem at its
	// position in the last run, under the same name, is served from that
	// run's index when the diff only changed edge policies.
	if r.keep && r.failuresOnly && p.Safety != nil && p.Safety.Network == r.n {
		pr.index = &problemIndex{name: p.Name, frame: p.Safety.Frame()}
		if r.restrict && i < len(r.prevIndex) {
			old := r.prevIndex[i]
			if old != nil && old.name == p.Name && old.frame == pr.index.frame && len(old.at) == len(r.n.Index().Edges)+1 {
				pr.old = old
			}
		}
	}
	var checks []core.Check
	var err error
	if pr.index != nil {
		pr.prop = p.Safety.Property
		r.enumerate(pr, p.Safety)
	} else if pr.prop, checks, err = Generate(p); r.prevResults == nil {
		pr.dirty, pr.outcome.Checks = checks, len(checks)
	} else {
		for _, c := range checks {
			r.take(pr, c, -1)
		}
	}
	if err != nil {
		r.fail(pr, err, p.Optional)
		return pr
	}
	pr.outcome.Dirty = len(pr.dirty)
	r.res.TotalChecks += pr.outcome.Checks
	r.res.DirtyChecks += len(pr.dirty)
	r.res.ReusedResults += pr.outcome.Reused
	return pr
}

// fail records that a problem's checks could not be generated (a skip if
// it is optional) or submitted.
func (r *runner) fail(pr *problemRun, err error, optional bool) {
	pr.outcome.SkipReason, pr.outcome.Err = err.Error(), err
	pr.outcome.Skipped, pr.outcome.Failed = optional, !optional
	if !optional {
		r.res.OK = false
		r.res.Failures++
	}
}

// submit hands a split problem's dirty checks to the engine.
func (r *runner) submit(pr *problemRun) {
	if r.hooks.Begin != nil {
		pr.span = r.hooks.Begin(pr.i, &pr.outcome)
	}
	if pr.outcome.Skipped || pr.outcome.Failed {
		return
	}
	wl := r.wl
	wl.Kind, wl.Property, wl.Checks, wl.Reservation = engine.KindChecks, pr.prop, pr.dirty, r.resv
	if pr.span != nil {
		wl.TraceSpan = pr.span
	}
	wl.OnResult = r.observe(pr)
	job, err := r.eng.Submit(context.Background(), wl)
	pr.dirty = nil // the engine holds the checks until the job finishes
	if err != nil {
		r.fail(pr, err, false)
	}
	pr.job = job
}

// observe returns a problem's result observer: it retains each verdict
// for the Verifier and passes each result to the Check hook.
func (r *runner) observe(pr *problemRun) func(engine.Progress) {
	i, check := pr.i, r.hooks.Check
	if !r.keep && check == nil {
		return nil
	}
	dirty, index, dirtyAt := pr.dirty, pr.index, pr.dirtyAt
	return func(p engine.Progress) {
		// Unknown is not a verdict: retaining it would freeze "insufficient
		// budget" as the key's answer across updates. Equal keys decide
		// alike, so the first verdict is kept.
		if key := dirty[p.Index].Key(); r.keep && key != "" && p.Result.Status != core.StatusUnknown {
			r.mu.Lock()
			res, ok := r.retained[key]
			if !ok {
				res = &kept{key, p.Result.Anonymous()}
				r.retained[key] = res
			}
			if index != nil && dirtyAt[p.Index] >= 0 {
				index.checks[dirtyAt[p.Index]].res = res
			}
			r.mu.Unlock()
		}
		if check != nil {
			check(i, p)
		}
	}
}

// collect waits for a problem's job, merges its reused and fresh results
// into the report, and records the outcome.
func (r *runner) collect(pr *problemRun) {
	o := &pr.outcome
	var st *engine.JobStats
	if pr.job == nil {
		pr.span.SetAttr("error", o.SkipReason)
	} else {
		rep, stats := pr.job.Wait(), pr.job.Stats()
		st = &stats
		r.res.Solved += st.Checks - st.CacheHits - st.DedupHits
		if len(pr.reused) > 0 || pr.folded.Checks > 0 {
			folded := rep.Folded
			folded.Merge(pr.folded)
			rep = core.NewReport(pr.prop, append(pr.reused, rep.Results...), rep.TotalTime)
			rep.Folded = folded
		}
		o.Report, o.OK = rep, rep.OK()
		hard := rep.HardFailures()
		if pr.index != nil {
			for _, h := range hard {
				if pr.index.fails == nil {
					pr.index.fails = make(map[checkAt]core.Desc, len(hard))
				}
				pr.index.fails[checkAt{h.Loc, h.Kind}] = h.Desc.Rendered()
			}
			r.index[pr.i] = pr.index
		}
		r.res.Failures += len(hard)
		r.res.Unknown += len(rep.Unknowns())
		if !o.OK {
			r.res.OK = false
			pr.span.SetAttr("ok", "false")
		}
		pr.span.SetAttrInt("checks", int64(st.Checks))
	}
	pr.span.End()
	if pr.old != nil {
		r.served++
	}
	r.res.Problems = append(r.res.Problems, *o)
	if r.hooks.Done != nil {
		r.hooks.Done(pr.i, o, st)
	}
}

// take files one generated check as reused or dirty, and its result under
// entry of the index, if it has one there (>= 0).
func (r *runner) take(pr *problemRun, c core.Check, entry int) {
	pr.outcome.Checks++
	res, ok := r.prevResults[c.Key()]
	if !ok {
		pr.dirty = append(pr.dirty, c)
		if pr.index != nil {
			pr.dirtyAt = append(pr.dirtyAt, int32(entry))
		}
		return
	}
	if entry >= 0 {
		pr.index.checks[entry].res = res
	}
	r.reuse(pr, res, c.Kind, c.Loc, c.Desc)
}

// reuse serves a retained result for the check at (kind, loc): the result
// is retained again, counted, and — unless a failures-only run only folds
// it — stamped with the check's identity.
func (r *runner) reuse(pr *problemRun, res *kept, kind core.CheckKind, loc core.Location, desc core.Desc) {
	r.retained[res.key] = res
	pr.outcome.Reused++
	if r.failuresOnly && res.OK {
		pr.folded.Add(&res.CheckResult)
		return
	}
	out := res.CheckResult
	out.Kind, out.Loc, out.Desc = kind, loc, desc
	if r.failuresOnly {
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
func (r *runner) enumerate(pr *problemRun, p *core.SafetyProblem) {
	edges := p.Network.Index().Edges
	idx, old := pr.index, pr.old
	idx.at = make([]int32, len(edges)+1)
	if old == nil {
		checks := p.Checks(core.Options{})
		edgeChecks := checks[:len(checks)-1] // the implication check is last
		idx.checks = make([]indexEntry, len(edgeChecks))
		k := 0
		for i, e := range edges {
			for loc := core.AtEdge(e); k < len(edgeChecks) && edgeChecks[k].Loc == loc; k++ {
				idx.checks[k] = indexEntry{kind: edgeChecks[k].Kind}
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
			r.take(pr, c, i)
		}
		return
	}

	regen := make([]int, 0, len(r.changed))
	for i, c := 0, 0; i < len(edges); i++ {
		if c < len(r.changed) && r.changed[c] == i {
			c++
		} else if r.serve(pr, i, edges[i]) {
			continue
		}
		regen = append(regen, i)
	}
	fresh := p.ChecksAt(regen)
	idx.checks = make([]indexEntry, 0, len(old.checks))
	f := 0
	for i, e := range edges {
		if len(regen) > 0 && regen[0] == i {
			regen = regen[1:]
			for loc := core.AtEdge(e); f < len(fresh)-1 && fresh[f].Loc == loc; f++ {
				idx.checks = append(idx.checks, indexEntry{kind: fresh[f].Kind})
				r.take(pr, fresh[f], len(idx.checks)-1)
			}
		} else {
			idx.checks = append(idx.checks, old.checks[old.at[i]:old.at[i+1]]...)
		}
		idx.at[i+1] = int32(len(idx.checks))
	}
	r.take(pr, fresh[len(fresh)-1], -1)
}

// serve reuses every check the old index holds at edge e, the i-th edge, if
// all of them can be: each has a retained result (the Verifier's for its
// key, which the index entry points at), and each failure its description.
// Otherwise it serves none.
func (r *runner) serve(pr *problemRun, i int, e topology.Edge) bool {
	old := pr.old
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
		r.reuse(pr, en.res, en.kind, loc, desc)
	}
	return true
}
