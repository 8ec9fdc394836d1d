package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"lightyear/internal/routemodel"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// CheckKind classifies a generated local check.
type CheckKind int

// Local check kinds. ImportCheck/ExportCheck/OriginateCheck are the safety
// checks of §4.2; ImplicationCheck is the final I_ℓ ⊆ P check;
// PropagationCheck and InterferenceCheck are the liveness checks of §5.2.
const (
	ImportCheck CheckKind = iota
	ExportCheck
	OriginateCheck
	ImplicationCheck
	PropagationCheck
	InterferenceCheck
)

func (k CheckKind) String() string {
	switch k {
	case ImportCheck:
		return "import"
	case ExportCheck:
		return "export"
	case OriginateCheck:
		return "originate"
	case ImplicationCheck:
		return "implication"
	case PropagationCheck:
		return "propagation"
	case InterferenceCheck:
		return "no-interference"
	}
	return fmt.Sprintf("check(%d)", int(k))
}

// Check is one generated local check: a declarative Obligation (what must be
// proven) bound to the execution options it was generated under. Construction
// and execution are separate — SafetyProblem.Checks / LivenessProblem.Checks
// build checks without solving anything, and any execution substrate (the
// in-package runners, internal/engine, an internal/solver backend) decides
// the obligation later.
type Check struct {
	Kind CheckKind
	Loc  Location // the edge or router the check pertains to
	Desc Desc
	key  string // semantic cache key

	ob *Obligation
}

// Desc is a check's human-readable description. Generated checks render it
// on demand from the obligation's content, so a check that is enumerated,
// served from a cache and never shown formats nothing; descriptions that
// arrive as text (off the wire, or rendered for retention) are carried as is.
type Desc struct {
	ob   *Obligation
	text string
}

// Text wraps an already rendered description.
func Text(s string) Desc { return Desc{text: s} }

func (d Desc) String() string {
	if d.ob != nil {
		return d.ob.describe()
	}
	return d.text
}

// Rendered returns the description as text only: it no longer references
// the obligation, so a retained result does not pin the plan it came from.
func (d Desc) Rendered() Desc { return Desc{text: d.String()} }

// newCheck binds an obligation to a check, mirroring the obligation's
// identity onto it.
func newCheck(ob *Obligation) Check {
	ob.Desc = Desc{ob: ob}
	return Check{
		Kind: ob.Kind,
		Loc:  ob.Loc,
		Desc: ob.Desc,
		key:  ob.key,
		ob:   ob,
	}
}

// Key returns the check's semantic cache key: a hash of everything the
// check's verdict depends on — kind, polarity, and the content fingerprints
// of the filter's policy, the predicates involved and the ghost updates (see
// composeKey). The location is not part of it: two checks with the same key
// decide the same formula wherever they sit, so a result may be shared
// between them — the hook the engine's cross-problem dedup and result cache
// are built on. An empty key means the check is not cacheable.
func (c Check) Key() string { return c.key }

// Obligation returns the check's declarative content. Execution substrates
// that route checks to solver backends (internal/engine) solve the
// obligation directly and stamp the result with the check's identity.
func (c Check) Obligation() *Obligation { return c.ob }

// Run executes the check and returns its result. Checks are self-contained
// and independent, so Run may be called from any goroutine.
func (c Check) Run() CheckResult { return c.RunContext(context.Background()) }

// RunContext executes the check with cooperative cancellation: when ctx is
// cancelled mid-solve the result has StatusUnknown. The solve is unbounded;
// a budget is a solver backend's (internal/solver) to set.
func (c Check) RunContext(ctx context.Context) CheckResult {
	return c.ob.Solve(ctx, SolveConfig{})
}

// Counterexample is a concrete witness for a failed local check: an input
// route that the filter at the named location handles in a way that violates
// the local invariant.
type Counterexample struct {
	Input  *routemodel.Route // route arriving at the filter
	Output *routemodel.Route // transformed route (nil if rejected/irrelevant)
	Note   string
}

func (c *Counterexample) String() string {
	if c == nil {
		return "<none>"
	}
	var b strings.Builder
	if c.Input != nil {
		fmt.Fprintf(&b, "input:  %s", c.Input)
	}
	if c.Output != nil {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "output: %s", c.Output)
	}
	if c.Note != "" {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "note:   %s", c.Note)
	}
	return b.String()
}

// CheckResult is the outcome of one local check.
type CheckResult struct {
	Kind CheckKind
	Loc  Location
	Desc Desc
	// OK mirrors Status == StatusOK; it is kept as a field because nearly
	// every consumer only needs the boolean.
	OK bool
	// Status distinguishes a proven violation (StatusFail) from an undecided
	// check (StatusUnknown — budget exhausted or cancelled). Both have
	// OK == false; only StatusFail carries a real counterexample.
	Status Status
	// Backend labels the solver path that produced the verdict ("native",
	// "portfolio/<variant>", "tiered/quick", ...). Empty for results
	// assembled outside a solver (e.g. replayed from a persistent store).
	Backend        string
	Counterexample *Counterexample

	NumVars   int           // SAT variables in this check's formula
	NumCons   int           // CNF clauses in this check's formula
	NumTerms  int           // term-graph nodes built while encoding
	SolveTime time.Duration // time inside the solver
	TotalTime time.Duration // encode + solve

	// Solver is the CDCL search provenance behind the verdict. Zero for
	// results decided without search (concrete evaluation, cache replay).
	Solver SolveStats
}

// Anonymous returns the result without its per-check identity — the form
// result caches and delta sessions retain. Whoever serves it again stamps the
// receiving check's identity, and a retained description would otherwise
// keep the obligation it renders from (and through it the network and plan)
// reachable for as long as the result is.
func (r *CheckResult) Anonymous() CheckResult {
	out := *r
	out.Kind, out.Loc, out.Desc = 0, Location{}, Desc{}
	return out
}

// SolveStats is the CDCL search provenance of one check: how hard the
// solver worked, not just how long it took. For escalating backends
// (tiered) the fields accumulate across tiers, mirroring SolveTime.
type SolveStats struct {
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Restarts     int64 `json:"restarts"`
	Learned      int64 `json:"learned"` // clauses learned during search
}

// Add accumulates o into s (used by escalating/aggregating consumers).
func (s *SolveStats) Add(o SolveStats) {
	s.Conflicts += o.Conflicts
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Restarts += o.Restarts
	s.Learned += o.Learned
}

// Depth reports whether any real search happened (any counter non-zero).
func (s SolveStats) Depth() bool {
	return s.Conflicts != 0 || s.Decisions != 0 || s.Propagations != 0 ||
		s.Restarts != 0 || s.Learned != 0
}

// Report aggregates the results of all local checks for one verification
// problem. A producer that materialises only the checks that did not pass
// (engine.ResultsFailures) folds the passing ones into Folded, so the
// aggregate accessors below stay exact either way.
type Report struct {
	Property Property
	Results  []CheckResult
	Folded   Folded

	TotalTime time.Duration
}

// Folded is the exact aggregate of OK results that were counted instead of
// kept.
type Folded struct {
	Checks    int
	MaxVars   int
	MaxCons   int
	SolveTime time.Duration
	TotalTime time.Duration // summed per-check encode + solve time
}

// Merge folds another aggregate into f.
func (f *Folded) Merge(o Folded) {
	f.Checks += o.Checks
	f.MaxVars = max(f.MaxVars, o.MaxVars)
	f.MaxCons = max(f.MaxCons, o.MaxCons)
	f.SolveTime += o.SolveTime
	f.TotalTime += o.TotalTime
}

// Add folds one result into the aggregate.
func (f *Folded) Add(r *CheckResult) {
	f.Merge(Folded{1, r.NumVars, r.NumCons, r.SolveTime, r.TotalTime})
}

// OK reports whether every local check passed; if so the end-to-end
// property is guaranteed (correctness theorems of §4.3 and §5.3).
func (r *Report) OK() bool {
	for i := range r.Results {
		if !r.Results[i].OK {
			return false
		}
	}
	return true
}

// Failures returns every check result that did not pass — proven violations
// and undecided (Unknown) checks alike. Use HardFailures/Unknowns to tell
// them apart.
func (r *Report) Failures() []CheckResult {
	return r.filter(func(c *CheckResult) bool { return !c.OK })
}

// HardFailures returns the checks with a proven violation (StatusFail),
// excluding undecided checks.
func (r *Report) HardFailures() []CheckResult {
	return r.filter(func(c *CheckResult) bool { return c.Status == StatusFail })
}

// Unknowns returns the undecided checks (StatusUnknown): the solver budget
// was exhausted or the solve was cancelled before a verdict.
func (r *Report) Unknowns() []CheckResult {
	return r.filter(func(c *CheckResult) bool { return c.Status == StatusUnknown })
}

func (r *Report) filter(keep func(*CheckResult) bool) []CheckResult {
	var out []CheckResult
	for i := range r.Results {
		if keep(&r.Results[i]) {
			out = append(out, r.Results[i])
		}
	}
	return out
}

// aggregate folds the materialised results on top of Folded.
func (r *Report) aggregate() Folded {
	f := r.Folded
	for i := range r.Results {
		f.Add(&r.Results[i])
	}
	return f
}

// NumChecks returns the number of local checks run.
func (r *Report) NumChecks() int { return len(r.Results) + r.Folded.Checks }

// MaxVars returns the maximum SAT variable count in any single local check —
// the quantity plotted in Figure 3b.
func (r *Report) MaxVars() int { return r.aggregate().MaxVars }

// MaxCons returns the maximum CNF clause count in any single local check
// (Figure 3b).
func (r *Report) MaxCons() int { return r.aggregate().MaxCons }

// SolveTime returns the summed solver time across all checks (Figure 3d's
// "constraint solving time" series).
func (r *Report) SolveTime() time.Duration { return r.aggregate().SolveTime }

// Summary renders a human-readable report. Proven violations print as FAIL
// lines with their counterexamples; undecided checks print as UNKNOWN lines
// (the property is not refuted — the solver budget was exhausted before a
// verdict, so escalate the budget or backend to decide them).
func (r *Report) Summary() string {
	var b strings.Builder
	unknowns := r.Unknowns()
	fmt.Fprintf(&b, "property: %s\n", r.Property)
	fmt.Fprintf(&b, "checks: %d, failed: %d, unknown: %d, total time: %v\n",
		r.NumChecks(), len(r.HardFailures()), len(unknowns), r.TotalTime)
	for _, f := range r.HardFailures() {
		fmt.Fprintf(&b, "FAIL [%s] at %s: %s\n", f.Kind, f.Loc, f.Desc)
		if f.Counterexample != nil {
			for _, line := range strings.Split(f.Counterexample.String(), "\n") {
				fmt.Fprintf(&b, "    %s\n", line)
			}
		}
	}
	for _, u := range unknowns {
		fmt.Fprintf(&b, "UNKNOWN [%s] at %s: %s (solver budget exhausted)\n", u.Kind, u.Loc, u.Desc)
	}
	if r.OK() {
		b.WriteString("all local checks passed: property verified\n")
	}
	return b.String()
}

// Options controls how VerifySafety and VerifyLiveness run checks. A solve
// is bounded only by the solver backend that decides it (internal/solver's
// native:N, portfolio:N, tiered:N); these in-process runners solve
// unbounded.
type Options struct {
	// Workers is the number of checks run concurrently; 0 means GOMAXPROCS.
	// Local checks are independent, so parallelism is safe (§2's
	// "trivially parallelizable" observation).
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SortResults orders check results deterministically by (Kind, Loc, Desc),
// comparing the location's fields; the description is rendered only to break
// a tie between checks of one kind at one location, keeping reports stable
// across runs regardless of execution order.
func SortResults(results []CheckResult) {
	sort.SliceStable(results, func(i, j int) bool {
		a, b := &results[i], &results[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Loc != b.Loc {
			return a.Loc.less(b.Loc)
		}
		return a.Desc.String() < b.Desc.String()
	})
}

// NewReport assembles a report from check results, sorting them
// deterministically. It is the single result-assembly path shared by the
// in-package runners and external execution substrates such as
// internal/engine.
func NewReport(prop Property, results []CheckResult, total time.Duration) *Report {
	SortResults(results)
	return &Report{Property: prop, Results: results, TotalTime: total}
}

// runChecks executes checks (in parallel when opts.Workers != 1) and
// assembles a report with deterministic result ordering.
func runChecks(prop Property, checks []Check, opts Options) *Report {
	start := time.Now()
	results := make([]CheckResult, len(checks))
	w := opts.workers()
	if w > len(checks) {
		w = len(checks)
	}
	if w <= 1 {
		for i := range checks {
			results[i] = checks[i].Run()
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					results[i] = checks[i].Run()
				}
			}()
		}
		for i := range checks {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	return NewReport(prop, results, time.Since(start))
}

// filterCheck builds the core local check pattern shared by §4.2 (import,
// export) and §5.2 (propagation): for a filter F on edge e with ghost
// actions gs,
//
//	∀r: pre(r) ∧ r' = F(r) ⇒ (r' = Reject ∨ post(r'))    (mustAccept=false)
//	∀r: pre(r) ∧ r' = F(r) ⇒ (r' ≠ Reject ∧ post(r'))    (mustAccept=true)
//
// It is decided by asking the solver for a route violating the implication;
// UNSAT means the check holds. The check carries the declarative obligation;
// nothing is encoded, rendered or solved until something asks. mFP is the
// fingerprint of the filter f.m, memoised by its network.
func filterCheck(kind CheckKind, e topology.Edge, f filterObligation, mFP spec.Fingerprint,
	ghosts ghostSet, pre, post *predicate) Check {
	// One allocation carries the obligation and its content.
	a := &struct {
		ob Obligation
		f  filterObligation
	}{f: f}
	a.f.ghostActs, a.f.pre, a.f.post = ghosts.acts, pre, post
	a.ob = Obligation{Kind: kind, Loc: AtEdge(e), filter: &a.f}
	a.ob.key = composeKey(kind, f.mustAccept, mFP, ghosts.fp, pre.memo().fp, post.memo().fp)
	return newCheck(&a.ob)
}

// implicationCheck decides pre ⊆ post (i.e., ∀r: pre(r) ⇒ post(r)) as a
// standalone check, used for I_ℓ ⊆ P (final=false) and C_n ⊆ P (final=true).
func implicationCheck(loc Location, u *spec.Universe, pre, post *predicate, final bool) Check {
	ob := &Obligation{
		Kind:        ImplicationCheck,
		Loc:         loc,
		key:         composeKey(ImplicationCheck, false, pre.memo().fp, post.memo().fp),
		implication: &implicationObligation{u: u, pre: pre, post: post, final: final},
	}
	return newCheck(ob)
}

// originateCheck validates every originated route on edge e against the
// edge invariant. Originated routes are concrete, so this check evaluates
// the predicate directly rather than calling the solver. routesFP is the
// network's memoised fingerprint of the routes, ghostsFP the fingerprint of
// the ghost names with the values they take on routes originated on e
// (ghostTable.onOriginate).
func originateCheck(e topology.Edge, routes []*routemodel.Route, routesFP spec.Fingerprint,
	ghosts []GhostDef, ghostsFP spec.Fingerprint, inv *predicate) Check {
	ob := &Obligation{
		Kind:      OriginateCheck,
		Loc:       AtEdge(e),
		key:       composeKey(OriginateCheck, false, routesFP, ghostsFP, inv.memo().fp),
		originate: &originateObligation{e: e, routes: routes, ghosts: ghosts, inv: inv},
	}
	return newCheck(ob)
}

// composeKey composes a check's semantic cache key from fixed-width parts: the
// kind, the polarity, and the content fingerprints of everything else the
// verdict depends on. The location is left out: a local check's verdict
// reads the filter, the ghost updates and the invariants on either side of
// it, each fingerprinted here, never the session it sits on, so every
// session posing the same check shares one verdict. Descriptions and
// witnesses stay per check (the engine stamps a shared result with the
// receiving check's identity). The key is the first 128 bits of a SHA-256
// over the parts, hex-encoded. Keys gate result sharing across jobs and
// persistent stores, so a collision would silently return one check's
// verdict for another; 128 bits of SHA-256 make that cryptographically
// negligible where a 64-bit hash leaves it to birthday luck.
func composeKey(kind CheckKind, mustAccept bool, fps ...spec.Fingerprint) string {
	var buf [128]byte
	b := append(buf[:0], byte(kind), boolByte(mustAccept))
	for i := range fps {
		b = append(b, fps[i][:]...)
	}
	sum := sha256.Sum256(b)
	var dst [32]byte
	hex.Encode(dst[:], sum[:16])
	return string(dst[:])
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// PartitionChecks splits checks into those whose location satisfies dirty
// and the rest — the hook internal/delta uses to map a network diff onto
// the subset of local checks that must re-run. It preserves order within
// each partition.
func PartitionChecks(checks []Check, dirty func(Location) bool) (hit, miss []Check) {
	for _, c := range checks {
		if dirty(c.Loc) {
			hit = append(hit, c)
		} else {
			miss = append(miss, c)
		}
	}
	return hit, miss
}
