package smt

import (
	"fmt"
	"sync/atomic"

	"lightyear/internal/smt/sat"
)

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
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

// Model is a satisfying assignment for the variables of a formula.
type Model struct {
	bools map[string]bool
	bvs   map[string]uint64
}

// Bool returns the value of a boolean variable in the model. Variables not
// constrained by the formula default to false.
func (m *Model) Bool(name string) bool { return m.bools[name] }

// BV returns the value of a bitvector variable in the model. Variables not
// constrained by the formula default to 0.
func (m *Model) BV(name string) uint64 { return m.bvs[name] }

// HasBool reports whether the model assigns the named boolean variable.
func (m *Model) HasBool(name string) bool {
	_, ok := m.bools[name]
	return ok
}

// HasBV reports whether the model assigns the named bitvector variable.
func (m *Model) HasBV(name string) bool {
	_, ok := m.bvs[name]
	return ok
}

// Result carries the verdict of a Solve call together with solver statistics
// used by the scaling experiments (Figure 3 reports variable and constraint
// counts and solve times).
type Result struct {
	Status   Status
	Model    *Model // non-nil iff Status == Sat
	NumVars  int    // SAT variables created by bit-blasting
	NumCons  int    // CNF clauses generated
	NumTerms int    // term-graph nodes in the solver's Context
	// Stats is the CDCL search provenance of this check (conflicts,
	// decisions, propagations, restarts, learned clauses) — why the solver
	// took as long as it did, not just how long.
	Stats sat.Stats
}

// Solver lowers formulas to CNF and decides them. A Solver wraps one SAT
// instance; assertions accumulate (conjunctively) across Assert calls.
type Solver struct {
	ctx  *Context
	sat  *sat.Solver
	tt   sat.Lit // literal fixed true
	bool map[*Term]sat.Lit
	bv   map[*Term][]sat.Lit

	boolVars map[string]sat.Lit
	bvVars   map[string][]sat.Lit

	budget int64
}

// NewSolver returns a solver for formulas built in ctx.
func NewSolver(ctx *Context) *Solver {
	s := &Solver{
		ctx:      ctx,
		sat:      sat.New(),
		bool:     make(map[*Term]sat.Lit),
		bv:       make(map[*Term][]sat.Lit),
		boolVars: make(map[string]sat.Lit),
		bvVars:   make(map[string][]sat.Lit),
		budget:   -1,
	}
	v := s.sat.NewVar()
	s.tt = sat.MkLit(v, false)
	s.sat.AddClause(s.tt)
	return s
}

// SetConflictBudget bounds SAT search effort; negative means unlimited.
func (s *Solver) SetConflictBudget(n int64) {
	s.budget = n
	s.sat.SetConflictBudget(n)
}

// SetInterrupt installs a cooperative cancellation flag.
func (s *Solver) SetInterrupt(flag *atomic.Bool) { s.sat.SetInterrupt(flag) }

// SetDisableVSIDS switches the underlying SAT decision heuristic to a static
// variable order — one of the heuristic axes portfolio solving races.
func (s *Solver) SetDisableVSIDS(v bool) { s.sat.SetDisableVSIDS(v) }

// SetDisableRestarts turns off Luby restarts in the underlying SAT solver.
func (s *Solver) SetDisableRestarts(v bool) { s.sat.SetDisableRestarts(v) }

// SetPositivePhase makes fresh SAT variables branch true-first. Must be set
// before the first Assert to affect the whole formula.
func (s *Solver) SetPositivePhase(v bool) { s.sat.SetPositivePhase(v) }

// Assert adds a boolean term as a top-level constraint.
func (s *Solver) Assert(t *Term) {
	if !t.IsBool() {
		panic("smt: Assert requires a boolean term")
	}
	l := s.lowerBool(t)
	s.sat.AddClause(l)
}

// Check decides the conjunction of all asserted constraints.
func (s *Solver) Check() Result {
	st := s.sat.Solve()
	res := Result{
		NumVars:  s.sat.NumVars(),
		NumCons:  s.sat.NumClauses(),
		NumTerms: s.ctx.NumTerms(),
		Stats:    s.sat.Stats(),
	}
	switch st {
	case sat.Sat:
		res.Status = Sat
		res.Model = s.extractModel()
	case sat.Unsat:
		res.Status = Unsat
	default:
		res.Status = Unknown
	}
	return res
}

// Solve is a convenience: assert the formula into a fresh solver and check.
func Solve(ctx *Context, formula *Term) Result {
	s := NewSolver(ctx)
	s.Assert(formula)
	return s.Check()
}

func (s *Solver) extractModel() *Model {
	m := &Model{bools: make(map[string]bool), bvs: make(map[string]uint64)}
	for name, lit := range s.boolVars {
		m.bools[name] = s.litModelValue(lit)
	}
	for name, bits := range s.bvVars {
		var v uint64
		for i, b := range bits {
			if s.litModelValue(b) {
				v |= 1 << uint(i)
			}
		}
		m.bvs[name] = v
	}
	return m
}

func (s *Solver) litModelValue(l sat.Lit) bool {
	v := s.sat.ModelValue(l.Var())
	if l.Neg() {
		return !v
	}
	return v
}

// fresh allocates a new SAT literal.
func (s *Solver) fresh() sat.Lit {
	return sat.MkLit(s.sat.NewVar(), false)
}

// lowerBool converts a boolean term to a SAT literal, adding Tseitin
// definition clauses as needed. Results are cached per term.
func (s *Solver) lowerBool(t *Term) sat.Lit {
	if l, ok := s.bool[t]; ok {
		return l
	}
	var l sat.Lit
	switch t.op {
	case OpBoolConst:
		if t.cval != 0 {
			l = s.tt
		} else {
			l = s.tt.Not()
		}
	case OpBoolVar:
		if v, ok := s.boolVars[t.name]; ok {
			l = v
		} else {
			l = s.fresh()
			s.boolVars[t.name] = l
		}
	case OpNot:
		l = s.lowerBool(t.kids[0]).Not()
	case OpAnd:
		lits := make([]sat.Lit, len(t.kids))
		for i, k := range t.kids {
			lits[i] = s.lowerBool(k)
		}
		l = s.andGate(lits)
	case OpOr:
		lits := make([]sat.Lit, len(t.kids))
		for i, k := range t.kids {
			lits[i] = s.lowerBool(k)
		}
		l = s.orGate(lits)
	case OpImplies:
		l = s.orGate([]sat.Lit{s.lowerBool(t.kids[0]).Not(), s.lowerBool(t.kids[1])})
	case OpIff:
		l = s.xorGate(s.lowerBool(t.kids[0]), s.lowerBool(t.kids[1])).Not()
	case OpIteBool:
		l = s.muxGate(s.lowerBool(t.kids[0]), s.lowerBool(t.kids[1]), s.lowerBool(t.kids[2]))
	case OpEq:
		a := s.lowerBV(t.kids[0])
		b := s.lowerBV(t.kids[1])
		eqs := make([]sat.Lit, len(a))
		for i := range a {
			eqs[i] = s.xorGate(a[i], b[i]).Not()
		}
		l = s.andGate(eqs)
	case OpUlt:
		l = s.ultGate(s.lowerBV(t.kids[0]), s.lowerBV(t.kids[1]), false)
	case OpUle:
		l = s.ultGate(s.lowerBV(t.kids[0]), s.lowerBV(t.kids[1]), true)
	default:
		panic(fmt.Sprintf("smt: lowerBool: unexpected op %v", t.op))
	}
	s.bool[t] = l
	return l
}

// lowerBV converts a bitvector term to per-bit literals (LSB first).
func (s *Solver) lowerBV(t *Term) []sat.Lit {
	if bits, ok := s.bv[t]; ok {
		return bits
	}
	var bits []sat.Lit
	switch t.op {
	case OpBVConst:
		bits = make([]sat.Lit, t.width)
		for i := 0; i < t.width; i++ {
			if t.cval&(1<<uint(i)) != 0 {
				bits[i] = s.tt
			} else {
				bits[i] = s.tt.Not()
			}
		}
	case OpBVVar:
		if v, ok := s.bvVars[t.name]; ok {
			bits = v
		} else {
			bits = make([]sat.Lit, t.width)
			for i := range bits {
				bits[i] = s.fresh()
			}
			s.bvVars[t.name] = bits
		}
	case OpBVAdd:
		bits = s.adder(s.lowerBV(t.kids[0]), s.lowerBV(t.kids[1]))
	case OpIteBV:
		cond := s.lowerBool(t.kids[0])
		a := s.lowerBV(t.kids[1])
		b := s.lowerBV(t.kids[2])
		bits = make([]sat.Lit, len(a))
		for i := range a {
			bits[i] = s.muxGate(cond, a[i], b[i])
		}
	case OpExtract:
		a := s.lowerBV(t.kids[0])
		bits = a[t.lo : t.lo+t.width]
	default:
		panic(fmt.Sprintf("smt: lowerBV: unexpected op %v", t.op))
	}
	s.bv[t] = bits
	return bits
}

// andGate returns a literal g with g <=> AND(lits).
func (s *Solver) andGate(lits []sat.Lit) sat.Lit {
	switch len(lits) {
	case 0:
		return s.tt
	case 1:
		return lits[0]
	}
	// Constant pruning.
	var use []sat.Lit
	for _, l := range lits {
		if l == s.tt.Not() {
			return s.tt.Not()
		}
		if l == s.tt {
			continue
		}
		use = append(use, l)
	}
	switch len(use) {
	case 0:
		return s.tt
	case 1:
		return use[0]
	}
	g := s.fresh()
	// g -> l_i
	for _, l := range use {
		s.sat.AddClause(g.Not(), l)
	}
	// (AND l_i) -> g
	cl := make([]sat.Lit, 0, len(use)+1)
	for _, l := range use {
		cl = append(cl, l.Not())
	}
	cl = append(cl, g)
	s.sat.AddClause(cl...)
	return g
}

// orGate returns a literal g with g <=> OR(lits).
func (s *Solver) orGate(lits []sat.Lit) sat.Lit {
	neg := make([]sat.Lit, len(lits))
	for i, l := range lits {
		neg[i] = l.Not()
	}
	return s.andGate(neg).Not()
}

// xorGate returns a literal g with g <=> a XOR b.
func (s *Solver) xorGate(a, b sat.Lit) sat.Lit {
	if a == s.tt {
		return b.Not()
	}
	if a == s.tt.Not() {
		return b
	}
	if b == s.tt {
		return a.Not()
	}
	if b == s.tt.Not() {
		return a
	}
	if a == b {
		return s.tt.Not()
	}
	if a == b.Not() {
		return s.tt
	}
	g := s.fresh()
	s.sat.AddClause(g.Not(), a, b)
	s.sat.AddClause(g.Not(), a.Not(), b.Not())
	s.sat.AddClause(g, a.Not(), b)
	s.sat.AddClause(g, a, b.Not())
	return g
}

// muxGate returns g <=> (c ? a : b).
func (s *Solver) muxGate(c, a, b sat.Lit) sat.Lit {
	if c == s.tt {
		return a
	}
	if c == s.tt.Not() {
		return b
	}
	if a == b {
		return a
	}
	g := s.fresh()
	s.sat.AddClause(c.Not(), a.Not(), g)
	s.sat.AddClause(c.Not(), a, g.Not())
	s.sat.AddClause(c, b.Not(), g)
	s.sat.AddClause(c, b, g.Not())
	return g
}

// adder returns bits of a + b, modular.
func (s *Solver) adder(a, b []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(a))
	carry := s.tt.Not()
	for i := range a {
		axb := s.xorGate(a[i], b[i])
		out[i] = s.xorGate(axb, carry)
		// carry' = (a & b) | (carry & (a ^ b))
		ab := s.andGate([]sat.Lit{a[i], b[i]})
		ca := s.andGate([]sat.Lit{carry, axb})
		carry = s.orGate([]sat.Lit{ab, ca})
	}
	return out
}

// ultGate returns a < b (or a <= b when orEqual), unsigned, MSB-first scan.
func (s *Solver) ultGate(a, b []sat.Lit, orEqual bool) sat.Lit {
	// result for the empty suffix: a == b, so "<" is false, "<=" is true.
	res := s.tt.Not()
	if orEqual {
		res = s.tt
	}
	for i := 0; i < len(a); i++ { // LSB to MSB so MSB dominates last
		lt := s.andGate([]sat.Lit{a[i].Not(), b[i]})
		eq := s.xorGate(a[i], b[i]).Not()
		// res' = lt | (eq & res)
		res = s.orGate([]sat.Lit{lt, s.andGate([]sat.Lit{eq, res})})
	}
	return res
}

// Eval computes the concrete value of a term under a model. Boolean terms
// yield 0/1 in the low bit. It is used to validate counterexamples and in
// tests as an independent semantics for the term language.
func Eval(t *Term, m *Model) uint64 {
	switch t.op {
	case OpBoolConst, OpBVConst:
		return t.cval
	case OpBoolVar:
		if m.Bool(t.name) {
			return 1
		}
		return 0
	case OpBVVar:
		return m.BV(t.name)
	case OpNot:
		return Eval(t.kids[0], m) ^ 1
	case OpAnd:
		for _, k := range t.kids {
			if Eval(k, m) == 0 {
				return 0
			}
		}
		return 1
	case OpOr:
		for _, k := range t.kids {
			if Eval(k, m) != 0 {
				return 1
			}
		}
		return 0
	case OpImplies:
		if Eval(t.kids[0], m) == 0 {
			return 1
		}
		return Eval(t.kids[1], m)
	case OpIff:
		if Eval(t.kids[0], m) == Eval(t.kids[1], m) {
			return 1
		}
		return 0
	case OpIteBool, OpIteBV:
		if Eval(t.kids[0], m) != 0 {
			return Eval(t.kids[1], m)
		}
		return Eval(t.kids[2], m)
	case OpEq:
		if Eval(t.kids[0], m) == Eval(t.kids[1], m) {
			return 1
		}
		return 0
	case OpUlt:
		if Eval(t.kids[0], m) < Eval(t.kids[1], m) {
			return 1
		}
		return 0
	case OpUle:
		if Eval(t.kids[0], m) <= Eval(t.kids[1], m) {
			return 1
		}
		return 0
	case OpBVAdd:
		return mask(Eval(t.kids[0], m)+Eval(t.kids[1], m), t.width)
	case OpExtract:
		return mask(Eval(t.kids[0], m)>>uint(t.lo), t.width)
	}
	panic(fmt.Sprintf("smt: Eval: unexpected op %v", t.op))
}

func mask(v uint64, w int) uint64 {
	if w >= 64 {
		return v
	}
	return v & ((1 << uint(w)) - 1)
}
