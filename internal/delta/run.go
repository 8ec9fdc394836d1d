package delta

import (
	"context"
	"errors"
	"sync"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/spec"
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

	// The loop's own steps, observed by this package's tests: a family's
	// edge checks being generated, and each problem's checks as submitted.
	enumerated func()
	submitted  func(i int, checks []core.Check)
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
	prevIndex          map[spec.Fingerprint]*frameIndex
	changed            []int // positions of the diff's changed edges in n's PolicyIndex
	restrict           bool  // the diff changed edge policies only: serve from prevIndex

	// retained is rebuilt each run, so results of removed locations do not
	// accumulate: reused results are carried over as problems are split,
	// fresh ones arrive from engine workers under mu. Only updates reuse,
	// and they split every problem before submitting any, so splitting
	// takes no lock.
	mu       sync.Mutex
	retained map[string]*kept
	index    map[spec.Fingerprint]*frameIndex // per edge frame, built by its first problem
	served   int

	last family
}

// family is the safety problem family (core.SafetyProblem.Family) a run met
// last. Edge checks read neither the property's location nor anything else
// a family shares, so every problem of a family poses the same ones: each
// problem submits them, then its own implication check, and they are
// generated once, for the family's first problem. Suites emit a family's
// problems together (every peering property at every router, then the
// next property), so the last family catches all the sharing a map would,
// and holds one problem's checks rather than a whole plan's. Within a run
// the edges regenerated for a family are fixed too: the diff's changed
// edges and the last run's index of its frame decide them.
type family struct {
	of    *core.SafetyProblem
	frame spec.Fingerprint // only where a Verifier's index needs it
	edges []core.Check     // nil until generated
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
	index   *frameIndex // built for the next update (the first problem of its frame)
	old     *frameIndex // the last run's index of its frame this run is served from, if any
	dirtyAt []int32     // with an index, each dirty check's entry in it (-1: the implication check)
}

var errEmptyProblem = errors.New("suite produced an empty problem")

// Generate builds one problem's checks on its own; a run shares a safety
// problem's edge checks with the problems of its family (runner.generate).
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
// Every problem of a safety family poses as many checks, so each family is
// counted once, for its first problem, and again for each that follows it.
func CountChecks(problems []netgen.Problem) int {
	cost, n := 0, 0
	var last *core.SafetyProblem
	for _, p := range problems {
		if p.Safety != nil {
			if f := p.Safety.Family(); f != last {
				last, n = f, p.Safety.NumChecks()
			}
			cost += n
		} else if n, err := NumChecks(p); err == nil {
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
	var checks []core.Check
	var err error
	// Only failures-only runs keep location indexes: a reused passing check
	// is then counted, never shown, so an update can serve it without
	// generating it. Problems with equal edge frames share one index, built
	// by the first of them; when the diff only changed edge policies, every
	// problem whose frame had an index in the last run is served from it.
	if r.keep && r.failuresOnly && p.Safety != nil && p.Safety.Network == r.n {
		fam := r.familyOf(p.Safety, true)
		if old := r.prevIndex[fam.frame]; r.restrict && old != nil && len(old.at) == len(r.n.Index().Edges)+1 {
			pr.old = old
		}
		if r.index[fam.frame] == nil {
			pr.index = &frameIndex{}
			r.index[fam.frame] = pr.index
		}
		pr.prop = p.Safety.Property
		r.enumerate(pr, p.Safety, fam)
	} else if pr.prop, checks, err = r.generate(p); r.prevResults == nil {
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

// generate builds one problem's checks as Generate does, but a safety
// problem's edge checks are its family's (edgeChecks).
func (r *runner) generate(p netgen.Problem) (core.Property, []core.Check, error) {
	if p.Safety == nil {
		return Generate(p)
	}
	edges := r.edgeChecks(p.Safety, r.familyOf(p.Safety, false), func() []int {
		every := make([]int, len(p.Safety.Network.Index().Edges))
		for i := range every {
			every[i] = i
		}
		return every
	})
	checks := make([]core.Check, len(edges), len(edges)+1)
	copy(checks, edges)
	return p.Safety.Property, append(checks, p.Safety.ImplicationCheck()), nil
}

// familyOf returns the run's record of p's family, starting it when p is
// the family's first problem; framed computes its Frame then, for an index.
func (r *runner) familyOf(p *core.SafetyProblem, framed bool) *family {
	if f := p.Family(); r.last.of != f {
		r.last = family{of: f}
		if framed {
			r.last.frame = f.Frame()
		}
	}
	return &r.last
}

// edgeChecks returns the edge checks of p's family at the PolicyIndex
// positions at() lists, generating them for its first problem. The checks
// are shared: callers copy them, never write to them.
func (r *runner) edgeChecks(p *core.SafetyProblem, fam *family, at func() []int) []core.Check {
	if fam.edges == nil {
		fam.edges = p.EdgeChecks(at())
		if r.hooks.enumerated != nil {
			r.hooks.enumerated()
		}
	}
	return fam.edges
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
	if r.hooks.submitted != nil {
		r.hooks.submitted(pr.i, pr.dirty)
	}
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
			if index != nil && dirtyAt[p.Index] >= 0 && res.OK {
				index.results[dirtyAt[p.Index]] = res
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
		r.res.Failures += len(rep.HardFailures())
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

// take files one generated check as reused or dirty, and a reused passing
// result under entry of the index, if it has one there (>= 0). A reused
// result is retained again, counted, and — unless a failures-only run only
// folds it — stamped with the check's identity.
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
	r.retained[res.key] = res
	pr.outcome.Reused++
	if r.failuresOnly && res.OK {
		if entry >= 0 {
			pr.index.results[entry] = res
		}
		pr.folded.Add(&res.CheckResult)
		return
	}
	out := res.CheckResult
	out.Kind, out.Loc, out.Desc = c.Kind, c.Loc, c.Desc
	if r.failuresOnly {
		out.Desc = c.Desc.Rendered()
	}
	pr.reused = append(pr.reused, out)
}

// enumerate files a failures-only safety problem's checks through take and
// records them in pr.index, if it builds one. Served from an old index — an
// equal frame, and an update whose diff changed edge policies only — it
// folds every unchanged edge whose checks all passed without generating
// them, and regenerates the changed edges, the edges that held a failure or
// an Unknown, and the implication check; otherwise it generates every
// check. Equal frames and equal policy fingerprints give the served edges
// the keys they had, so both ways file the same checks, and the dirty ones
// in the same order. The regenerated edges are the same for every problem
// of the family, and so are their checks (edgeChecks).
func (r *runner) enumerate(pr *problemRun, p *core.SafetyProblem, fam *family) {
	edges := p.Network.Index().Edges
	regen := make([]int, 0, len(edges))
	for i, c := 0, 0; i < len(edges); i++ {
		if c < len(r.changed) && r.changed[c] == i {
			c++
		} else if pr.old != nil && r.serve(pr, i) {
			continue
		}
		regen = append(regen, i)
	}
	fresh := r.edgeChecks(p, fam, func() []int { return regen })
	idx := pr.index
	if idx != nil {
		idx.at = make([]int32, len(edges)+1)
		idx.results = make([]*kept, 0, p.NumChecks()-1)
	}
	f := 0
	for i, e := range edges {
		if len(regen) > 0 && regen[0] == i {
			regen = regen[1:]
			for loc := core.AtEdge(e); f < len(fresh) && fresh[f].Loc == loc; f++ {
				entry := -1
				if idx != nil {
					entry = len(idx.results)
					idx.results = append(idx.results, nil)
				}
				r.take(pr, fresh[f], entry)
			}
		} else if idx != nil {
			idx.results = append(idx.results, pr.old.results[pr.old.at[i]:pr.old.at[i+1]]...)
		}
		if idx != nil {
			idx.at[i+1] = int32(len(idx.results))
		}
	}
	r.take(pr, p.ImplicationCheck(), -1)
}

// serve folds every result the old index holds at its i-th edge if all of
// them passed; otherwise it serves none, and the edge is regenerated.
func (r *runner) serve(pr *problemRun, i int) bool {
	group := pr.old.results[pr.old.at[i]:pr.old.at[i+1]]
	for _, res := range group {
		if res == nil {
			return false
		}
	}
	pr.outcome.Checks += len(group)
	pr.outcome.Reused += len(group)
	for _, res := range group {
		r.retained[res.key] = res
		pr.folded.Add(&res.CheckResult)
	}
	return true
}
