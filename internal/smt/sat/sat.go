// Package sat implements a CDCL (conflict-driven clause learning) SAT solver.
//
// It is the decision engine underneath the SMT layer in internal/smt: boolean
// structure and bit-blasted bitvector constraints are lowered to CNF and
// decided here. The solver implements the standard modern architecture:
// two-literal watching for unit propagation, VSIDS variable activity with a
// binary heap, first-UIP conflict analysis with clause learning, phase saving,
// Luby-sequence restarts, and learned-clause database reduction.
//
// Variables are positive integers starting at 1. Literals are represented by
// the Lit type, which packs the variable index and the sign.
package sat

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Lit is a propositional literal. For a variable v >= 1, the positive literal
// is encoded as 2v and the negative literal as 2v+1. The zero value is not a
// valid literal.
type Lit uint32

// MkLit constructs a literal from a variable index and a sign.
// neg=false yields the positive literal v, neg=true yields ¬v.
func MkLit(v int, neg bool) Lit {
	if v <= 0 {
		panic("sat: variable index must be >= 1")
	}
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the variable index of the literal.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as "v3" or "~v3".
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("~v%d", l.Var())
	}
	return fmt.Sprintf("v%d", l.Var())
}

// value of a variable in the current assignment.
type value int8

const (
	valUnassigned value = iota
	valTrue
	valFalse
)

func (v value) negate() value {
	switch v {
	case valTrue:
		return valFalse
	case valFalse:
		return valTrue
	}
	return valUnassigned
}

// Status is the outcome of a Solve call.
type Status int

const (
	// Unknown means solving was aborted (budget exhausted or Interrupt).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// ErrBudgetExhausted is returned by Solve when the conflict budget set with
// SetConflictBudget is exhausted before a verdict is reached.
var ErrBudgetExhausted = errors.New("sat: conflict budget exhausted")

// clause is a disjunction of literals. Learned clauses carry activity for
// database reduction.
type clause struct {
	lits     []Lit
	learned  bool
	activity float64
	lbd      int // literal block distance, used to protect "glue" clauses
}

// watcher pairs a clause reference with the "blocker" literal heuristic: if
// the blocker is already true the clause is satisfied and need not be visited.
type watcher struct {
	cref    int
	blocker Lit
}

// Stats reports solver counters accumulated since construction.
type Stats struct {
	Vars          int
	Clauses       int // problem clauses added
	Learned       int // learned clauses currently in the database
	Conflicts     int64
	Decisions     int64
	Propagations  int64
	Restarts      int64
	MaxLevel      int
	LearnedTotal  int64 // all clauses ever learned
	DeletedTotal  int64 // learned clauses deleted by reduction
	BinaryClauses int
	UnitClauses   int
}

// Solver is a CDCL SAT solver. The zero value is not usable; construct with
// New. A Solver may be reused for multiple Solve calls with different
// assumption sets; clauses persist across calls (incremental solving).
type Solver struct {
	clauses []clause // arena of all clauses; index = cref
	freed   []int    // recycled clause slots

	watches [][]watcher // literal -> watchers (indexed by Lit)

	assigns  []value // variable -> current value
	polarity []bool  // variable -> saved phase (true means last assigned false)
	level    []int   // variable -> decision level of its assignment
	reason   []int   // variable -> cref of the implying clause, or -1

	trail    []Lit // assignment stack
	trailLim []int // decision-level boundaries in trail
	qhead    int   // propagation queue head into trail

	// VSIDS
	activity []float64
	heap     varHeap
	varInc   float64
	varDecay float64

	claInc   float64
	claDecay float64

	seen    []bool // scratch for conflict analysis
	stack   []int  // scratch for minimization
	toClear []int

	nVars int
	stats Stats

	conflictBudget int64        // <0 means unlimited
	interrupted    *atomic.Bool // optional external interrupt flag
	disableVSIDS   bool         // ablation: static variable order instead of VSIDS
	disableRestart bool         // ablation: no Luby restarts
	positivePhase  bool         // branch true-first on fresh variables

	model []bool // last satisfying assignment (index by var)

	okay bool // false once a top-level conflict proves UNSAT

	maxLearned int // learned-clause cap before reduction
}

// New creates an empty solver.
func New() *Solver {
	s := &Solver{
		varInc:         1.0,
		varDecay:       0.95,
		claInc:         1.0,
		claDecay:       0.999,
		conflictBudget: -1,
		okay:           true,
		maxLearned:     8192,
	}
	// Index 0 is unused so variable indices start at 1.
	s.assigns = append(s.assigns, valUnassigned)
	s.polarity = append(s.polarity, false)
	s.level = append(s.level, -1)
	s.reason = append(s.reason, -1)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heap.init(s)
	return s
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	s.nVars++
	v := s.nVars
	s.assigns = append(s.assigns, valUnassigned)
	s.polarity = append(s.polarity, !s.positivePhase) // default phase: false unless SetPositivePhase
	s.level = append(s.level, -1)
	s.reason = append(s.reason, -1)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heap.push(v)
	s.stats.Vars = s.nVars
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

// NumClauses returns the number of problem clauses added (after top-level
// simplification such as dropping satisfied clauses is NOT applied; this
// counts AddClause calls that actually stored or implied something).
func (s *Solver) NumClauses() int { return s.stats.Clauses }

// SetConflictBudget limits the number of conflicts for subsequent Solve
// calls. A negative budget means unlimited.
func (s *Solver) SetConflictBudget(n int64) { s.conflictBudget = n }

// SetInterrupt installs a flag polled during solving; when the flag
// becomes true, Solve returns Unknown. An atomic flag, so timer or signal
// goroutines may set it while Solve runs.
func (s *Solver) SetInterrupt(flag *atomic.Bool) { s.interrupted = flag }

// SetDisableVSIDS switches the decision heuristic to a static variable
// order. Used by the heuristic-ablation benchmarks.
func (s *Solver) SetDisableVSIDS(v bool) { s.disableVSIDS = v }

// SetDisableRestarts turns off Luby restarts. Used by the ablation
// benchmarks.
func (s *Solver) SetDisableRestarts(v bool) { s.disableRestart = v }

// SetPositivePhase flips the default branching phase for variables allocated
// afterwards: decisions try true first instead of false. Phase saving still
// overrides the default once a variable has been assigned. This is one of
// the heuristic axes the portfolio solver backend races.
func (s *Solver) SetPositivePhase(v bool) { s.positivePhase = v }

// Stats returns a snapshot of the solver counters.
func (s *Solver) Stats() Stats {
	st := s.stats
	return st
}

// AddClause adds a clause given as a literal slice. It returns false if the
// solver is already in an UNSAT state or the clause is trivially conflicting
// at the top level. The slice is copied.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.okay {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called during solving")
	}
	// Normalize: sort, dedupe, drop false literals, detect tautologies.
	ls := make([]Lit, len(lits))
	copy(ls, lits)
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit
	for _, l := range ls {
		if l.Var() > s.nVars || l.Var() <= 0 {
			panic(fmt.Sprintf("sat: literal %v references unallocated variable", l))
		}
		if len(out) > 0 && l == prev {
			continue // duplicate
		}
		if len(out) > 0 && l == prev.Not() {
			return true // tautology: always satisfied
		}
		switch s.litValue(l) {
		case valTrue:
			return true // clause already satisfied at level 0
		case valFalse:
			continue // literal false at top level, drop
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.okay = false
		return false
	case 1:
		s.stats.Clauses++
		s.stats.UnitClauses++
		s.uncheckedEnqueue(out[0], -1)
		if s.propagate() != -1 {
			s.okay = false
			return false
		}
		return true
	}
	s.stats.Clauses++
	if len(out) == 2 {
		s.stats.BinaryClauses++
	}
	cref := s.allocClause(out, false)
	s.attachClause(cref)
	return true
}

func (s *Solver) allocClause(lits []Lit, learned bool) int {
	c := clause{lits: lits, learned: learned}
	if n := len(s.freed); n > 0 {
		cref := s.freed[n-1]
		s.freed = s.freed[:n-1]
		s.clauses[cref] = c
		return cref
	}
	s.clauses = append(s.clauses, c)
	return len(s.clauses) - 1
}

func (s *Solver) attachClause(cref int) {
	c := &s.clauses[cref]
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{cref, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{cref, c.lits[0]})
}

func (s *Solver) detachClause(cref int) {
	c := &s.clauses[cref]
	s.removeWatcher(c.lits[0].Not(), cref)
	s.removeWatcher(c.lits[1].Not(), cref)
}

func (s *Solver) removeWatcher(l Lit, cref int) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].cref == cref {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) litValue(l Lit) value {
	v := s.assigns[l.Var()]
	if v == valUnassigned {
		return valUnassigned
	}
	if l.Neg() {
		return v.negate()
	}
	return v
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from int) {
	v := l.Var()
	if l.Neg() {
		s.assigns[v] = valFalse
	} else {
		s.assigns[v] = valTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation. It returns the cref of a conflicting
// clause, or -1 if no conflict was found.
func (s *Solver) propagate() int {
	conflict := -1
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		ws := s.watches[p]
		i, j := 0, 0
		n := len(ws)
	nextWatcher:
		for i < n {
			w := ws[i]
			// Blocker literal already true: clause satisfied.
			if s.litValue(w.blocker) == valTrue {
				ws[j] = w
				i++
				j++
				continue
			}
			cref := w.cref
			c := &s.clauses[cref]
			// Make sure the false literal is at position 1.
			falseLit := p.Not()
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			i++
			first := c.lits[0]
			if first != w.blocker && s.litValue(first) == valTrue {
				ws[j] = watcher{cref, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != valFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{cref, first})
					continue nextWatcher
				}
			}
			// No new watch: clause is unit or conflicting.
			ws[j] = watcher{cref, first}
			j++
			if s.litValue(first) == valFalse {
				// Conflict: copy remaining watchers and bail out.
				conflict = cref
				s.qhead = len(s.trail)
				for i < n {
					ws[j] = ws[i]
					i++
					j++
				}
				break
			}
			s.uncheckedEnqueue(first, cref)
		}
		s.watches[p] = ws[:j]
		if conflict != -1 {
			return conflict
		}
	}
	return -1
}

// analyze performs first-UIP conflict analysis, returning the learned clause
// (with the asserting literal first) and the backtrack level.
func (s *Solver) analyze(conflict int) ([]Lit, int) {
	learned := []Lit{0} // reserve slot for the asserting literal
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	cref := conflict
	first := true

	for {
		c := &s.clauses[cref]
		if c.learned {
			s.bumpClause(cref)
		}
		start := 0
		if !first {
			start = 1 // skip the asserting literal of the reason clause
		}
		for k := start; k < len(c.lits); k++ {
			q := c.lits[k]
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.toClear = append(s.toClear, v)
			s.bumpVar(v)
			if s.level[v] >= s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Walk the trail backwards to find the next marked literal.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false // unmark; it is consumed
		counter--
		cref = s.reason[v]
		first = false
		if counter == 0 {
			break
		}
	}
	learned[0] = p.Not()

	// Clause minimization: drop literals implied by the rest of the clause.
	out := learned[:1]
	for _, l := range learned[1:] {
		if !s.redundant(l) {
			out = append(out, l)
		}
	}
	learned = out

	// Compute backtrack level: the second-highest decision level in clause.
	btLevel := 0
	if len(learned) > 1 {
		maxI := 1
		for i := 2; i < len(learned); i++ {
			if s.level[learned[i].Var()] > s.level[learned[maxI].Var()] {
				maxI = i
			}
		}
		learned[1], learned[maxI] = learned[maxI], learned[1]
		btLevel = s.level[learned[1].Var()]
	}

	for _, v := range s.toClear {
		s.seen[v] = false
	}
	s.toClear = s.toClear[:0]
	return learned, btLevel
}

// redundant reports whether literal l in a learned clause is implied by the
// remaining marked literals (recursive minimization, iterative form).
func (s *Solver) redundant(l Lit) bool {
	v := l.Var()
	if s.reason[v] == -1 {
		return false
	}
	s.stack = s.stack[:0]
	s.stack = append(s.stack, v)
	undoFrom := len(s.toClear)
	for len(s.stack) > 0 {
		x := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		c := &s.clauses[s.reason[x]]
		for _, q := range c.lits[1:] {
			w := q.Var()
			if s.seen[w] || s.level[w] == 0 {
				continue
			}
			if s.reason[w] == -1 {
				// Not implied: undo markings made during this test.
				for _, u := range s.toClear[undoFrom:] {
					s.seen[u] = false
				}
				s.toClear = s.toClear[:undoFrom]
				return false
			}
			s.seen[w] = true
			s.toClear = append(s.toClear, w)
			s.stack = append(s.stack, w)
		}
	}
	return true
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

func (s *Solver) bumpClause(cref int) {
	c := &s.clauses[cref]
	c.activity += s.claInc
	if c.activity > 1e20 {
		for i := range s.clauses {
			if s.clauses[i].learned {
				s.clauses[i].activity *= 1e-20
			}
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) backtrack(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assigns[v] = valUnassigned
		s.polarity[v] = s.trail[i].Neg() // phase saving
		s.reason[v] = -1
		s.heap.pushIfAbsent(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// pickBranchLit selects the next decision literal using VSIDS activity and
// the saved phase. It returns 0 when all variables are assigned.
func (s *Solver) pickBranchLit() Lit {
	if s.disableVSIDS {
		for v := 1; v <= s.nVars; v++ {
			if s.assigns[v] == valUnassigned {
				return MkLit(v, s.polarity[v])
			}
		}
		return 0
	}
	for !s.heap.empty() {
		v := s.heap.pop()
		if s.assigns[v] == valUnassigned {
			return MkLit(v, s.polarity[v])
		}
	}
	return 0
}

// luby computes the Luby restart sequence value for index i (1-based):
// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
func luby(i int64) int64 {
	x := i - 1
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return int64(1) << seq
}

// reduceDB removes roughly half of the learned clauses, preferring low
// activity and high LBD, keeping binary and glue clauses.
func (s *Solver) reduceDB() {
	type cand struct {
		cref int
		act  float64
		lbd  int
	}
	var cands []cand
	locked := func(cref int) bool {
		c := &s.clauses[cref]
		if len(c.lits) == 0 {
			return false
		}
		v := c.lits[0].Var()
		return s.assigns[v] != valUnassigned && s.reason[v] == cref
	}
	for cref := range s.clauses {
		c := &s.clauses[cref]
		if !c.learned || len(c.lits) <= 2 || c.lbd <= 2 || locked(cref) {
			continue
		}
		cands = append(cands, cand{cref, c.activity, c.lbd})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].lbd != cands[j].lbd {
			return cands[i].lbd > cands[j].lbd
		}
		return cands[i].act < cands[j].act
	})
	for _, cd := range cands[:len(cands)/2] {
		s.detachClause(cd.cref)
		s.clauses[cd.cref] = clause{}
		s.freed = append(s.freed, cd.cref)
		s.stats.Learned--
		s.stats.DeletedTotal++
	}
}

// computeLBD returns the number of distinct decision levels in the clause.
func (s *Solver) computeLBD(lits []Lit) int {
	seen := map[int]struct{}{}
	for _, l := range lits {
		seen[s.level[l.Var()]] = struct{}{}
	}
	return len(seen)
}

// Solve decides satisfiability under the given assumptions. Assumptions are
// literals that must hold; they are treated as top-of-tree decisions, so the
// solver remains reusable afterwards.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if !s.okay {
		return Unsat
	}
	s.backtrack(0)

	var restartNum int64
	conflictC := int64(0)
	for {
		if s.interrupted != nil && s.interrupted.Load() {
			s.backtrack(0)
			return Unknown
		}
		conflict := s.propagate()
		if conflict != -1 {
			s.stats.Conflicts++
			conflictC++
			if s.decisionLevel() == 0 {
				s.okay = false
				return Unsat
			}
			learned, btLevel := s.analyze(conflict)
			s.backtrack(btLevel)
			if len(learned) == 1 {
				s.uncheckedEnqueue(learned[0], -1)
			} else {
				cref := s.allocClause(learned, true)
				s.clauses[cref].lbd = s.computeLBD(learned)
				s.attachClause(cref)
				s.stats.Learned++
				s.stats.LearnedTotal++
				s.bumpClause(cref)
				s.uncheckedEnqueue(learned[0], cref)
			}
			s.varInc /= s.varDecay
			s.claInc /= s.claDecay
			if s.conflictBudget >= 0 && s.stats.Conflicts >= s.conflictBudget {
				s.backtrack(0)
				return Unknown
			}
			continue
		}

		// Restart check.
		restartLimit := 100 * luby(restartNum+1)
		if !s.disableRestart && conflictC >= restartLimit {
			conflictC = 0
			restartNum++
			s.stats.Restarts++
			s.backtrack(0)
			if s.stats.Learned > s.maxLearned {
				s.reduceDB()
			}
			continue
		}

		// Re-apply assumptions below any new decisions.
		if dl := s.decisionLevel(); dl < len(assumptions) {
			a := assumptions[dl]
			if a.Var() <= 0 || a.Var() > s.nVars {
				panic("sat: assumption references unallocated variable")
			}
			switch s.litValue(a) {
			case valTrue:
				// Already satisfied; open an empty decision level so the
				// indexing over assumptions stays aligned.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case valFalse:
				// Conflicts with current top-level knowledge.
				s.backtrack(0)
				return Unsat
			default:
				s.stats.Decisions++
				s.trailLim = append(s.trailLim, len(s.trail))
				if dl+1 > s.stats.MaxLevel {
					s.stats.MaxLevel = dl + 1
				}
				s.uncheckedEnqueue(a, -1)
				continue
			}
		}

		next := s.pickBranchLit()
		if next == 0 {
			// All variables assigned: SAT. Save the model.
			s.saveModel()
			s.backtrack(0)
			return Sat
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		if dl := s.decisionLevel(); dl > s.stats.MaxLevel {
			s.stats.MaxLevel = dl
		}
		s.uncheckedEnqueue(next, -1)
	}
}

func (s *Solver) saveModel() {
	if cap(s.model) < s.nVars+1 {
		s.model = make([]bool, s.nVars+1)
	}
	s.model = s.model[:s.nVars+1]
	for v := 1; v <= s.nVars; v++ {
		s.model[v] = s.assigns[v] == valTrue
	}
}

// ModelValue returns the value of variable v in the most recent satisfying
// assignment. It must only be called after Solve returned Sat.
func (s *Solver) ModelValue(v int) bool {
	if v <= 0 || v >= len(s.model) {
		panic(fmt.Sprintf("sat: ModelValue(%d) out of range (no model or bad var)", v))
	}
	return s.model[v]
}

// varHeap is a binary max-heap over variable activity.
type varHeap struct {
	s       *Solver
	heap    []int
	indices []int // variable -> position in heap, or -1
}

func (h *varHeap) init(s *Solver) {
	h.s = s
	h.indices = append(h.indices, -1)
}

func (h *varHeap) less(a, b int) bool {
	return h.s.activity[a] > h.s.activity[b]
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) push(v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.percolateUp(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v int) { h.push(v) }

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.indices[last] = 0
		h.percolateDown(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	if len(h.indices) > v && h.indices[v] >= 0 {
		h.percolateUp(h.indices[v])
	}
}

func (h *varHeap) percolateUp(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.indices[h.heap[i]] = i
		i = parent
	}
	h.heap[i] = v
	h.indices[v] = i
}

func (h *varHeap) percolateDown(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && h.less(h.heap[right], h.heap[left]) {
			best = right
		}
		if !h.less(h.heap[best], v) {
			break
		}
		h.heap[i] = h.heap[best]
		h.indices[h.heap[i]] = i
		i = best
	}
	h.heap[i] = v
	h.indices[v] = i
}
