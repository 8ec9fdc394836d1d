package smt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHashConsing(t *testing.T) {
	c := NewContext()
	a := c.BoolVar("a")
	b := c.BoolVar("b")
	if c.BoolVar("a") != a {
		t.Fatal("BoolVar not hash-consed")
	}
	if c.And(a, b) != c.And(a, b) {
		t.Fatal("And not hash-consed")
	}
	if c.BV(5, 8) != c.BV(5, 8) {
		t.Fatal("BV const not hash-consed")
	}
}

func TestBoolSimplifications(t *testing.T) {
	c := NewContext()
	a := c.BoolVar("a")
	cases := []struct {
		got, want *Term
		name      string
	}{
		{c.And(), c.True(), "empty and"},
		{c.Or(), c.False(), "empty or"},
		{c.And(a, c.True()), a, "and true"},
		{c.And(a, c.False()), c.False(), "and false"},
		{c.Or(a, c.False()), a, "or false"},
		{c.Or(a, c.True()), c.True(), "or true"},
		{c.And(a, a), a, "and idempotent"},
		{c.Or(a, a), a, "or idempotent"},
		{c.And(a, c.Not(a)), c.False(), "and contradiction"},
		{c.Or(a, c.Not(a)), c.True(), "or excluded middle"},
		{c.Not(c.Not(a)), a, "double negation"},
		{c.Not(c.True()), c.False(), "not true"},
		{c.Implies(c.True(), a), a, "true implies"},
		{c.Implies(c.False(), a), c.True(), "false implies"},
		{c.Implies(a, a), c.True(), "self implication"},
		{c.Iff(a, a), c.True(), "self iff"},
		{c.Ite(c.True(), a, c.False()), a, "ite true"},
		{c.Ite(c.False(), a, c.True()), c.True(), "ite false"},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestBVConstFolding(t *testing.T) {
	c := NewContext()
	if c.Add(c.BV(200, 8), c.BV(100, 8)) != c.BV(44, 8) {
		t.Fatal("modular add folding")
	}
	if c.Eq(c.BV(5, 8), c.BV(5, 8)) != c.True() {
		t.Fatal("eq folding")
	}
	if c.Ult(c.BV(3, 8), c.BV(5, 8)) != c.True() {
		t.Fatal("ult folding")
	}
	if c.Extract(c.BV(0xAB, 8), 4, 4) != c.BV(0xA, 4) {
		t.Fatal("extract folding")
	}
}

func TestSolveSimpleBool(t *testing.T) {
	c := NewContext()
	a := c.BoolVar("a")
	b := c.BoolVar("b")
	res := Solve(c, c.And(a, c.Not(b)))
	if res.Status != Sat {
		t.Fatalf("got %v, want sat", res.Status)
	}
	if !res.Model.Bool("a") || res.Model.Bool("b") {
		t.Fatalf("bad model: a=%v b=%v", res.Model.Bool("a"), res.Model.Bool("b"))
	}
	res = Solve(c, c.And(a, c.Not(a)))
	if res.Status != Unsat {
		t.Fatalf("contradiction: got %v, want unsat", res.Status)
	}
}

func TestSolveBVEquality(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 8)
	res := Solve(c, c.Eq(x, c.BV(42, 8)))
	if res.Status != Sat {
		t.Fatal("want sat")
	}
	if res.Model.BV("x") != 42 {
		t.Fatalf("x = %d, want 42", res.Model.BV("x"))
	}
}

func TestSolveBVArithmetic(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 8)
	y := c.BVVar("y", 8)
	// x + y = 10 and x < y
	f := c.And(c.Eq(c.Add(x, y), c.BV(10, 8)), c.Ult(x, y))
	res := Solve(c, f)
	if res.Status != Sat {
		t.Fatal("want sat")
	}
	xv, yv := res.Model.BV("x"), res.Model.BV("y")
	if (xv+yv)&0xFF != 10 || xv >= yv {
		t.Fatalf("model x=%d y=%d does not satisfy", xv, yv)
	}
}

func TestSolveBVUnsat(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 4)
	// x < 3 and x > 10 is unsat.
	f := c.And(c.Ult(x, c.BV(3, 4)), c.Ugt(x, c.BV(10, 4)))
	if res := Solve(c, f); res.Status != Unsat {
		t.Fatalf("got %v, want unsat", res.Status)
	}
}

func TestSolveIte(t *testing.T) {
	c := NewContext()
	p := c.BoolVar("p")
	x := c.BVVar("x", 8)
	// x = ite(p, 1, 2) and x = 2 forces p false.
	f := c.And(c.Eq(x, c.Ite(p, c.BV(1, 8), c.BV(2, 8))), c.Eq(x, c.BV(2, 8)))
	res := Solve(c, f)
	if res.Status != Sat {
		t.Fatal("want sat")
	}
	if res.Model.Bool("p") {
		t.Fatal("p must be false")
	}
}

func TestSolveExtract(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 8)
	hi := c.Extract(x, 4, 4)
	lo := c.Extract(x, 0, 4)
	// Fixing both halves fixes x: hi = 0xF and lo = 0x2 force x = 0xF2.
	res := Solve(c, c.And(c.Eq(hi, c.BV(0xF, 4)), c.Eq(lo, c.BV(0x2, 4))))
	if res.Status != Sat || res.Model.BV("x") != 0xF2 {
		t.Fatalf("halves 0xF, 0x2: status=%v x=%#x", res.Status, res.Model.BV("x"))
	}
	// and x = 0xF2 leaves no other value for its low half.
	f := c.And(c.Eq(x, c.BV(0xF2, 8)), c.Not(c.Eq(lo, c.BV(0x2, 4))))
	if res := Solve(c, f); res.Status != Unsat {
		t.Fatalf("got %v, want unsat", res.Status)
	}
}

func TestUleBoundaries(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 4)
	// x <= 0 forces x = 0.
	res := Solve(c, c.Ule(x, c.BV(0, 4)))
	if res.Status != Sat || res.Model.BV("x") != 0 {
		t.Fatalf("x <= 0: status=%v x=%d", res.Status, res.Model.BV("x"))
	}
	// 15 <= x forces x = 15.
	res = Solve(c, c.Ule(c.BV(15, 4), x))
	if res.Status != Sat || res.Model.BV("x") != 15 {
		t.Fatalf("15 <= x: status=%v x=%d", res.Status, res.Model.BV("x"))
	}
}

func TestIncrementalAssert(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 8)
	s := NewSolver(c)
	s.Assert(c.Ult(x, c.BV(10, 8)))
	if s.Check().Status != Sat {
		t.Fatal("want sat")
	}
	s.Assert(c.Ugt(x, c.BV(5, 8)))
	res := s.Check()
	if res.Status != Sat {
		t.Fatal("want sat")
	}
	if v := res.Model.BV("x"); v <= 5 || v >= 10 {
		t.Fatalf("x = %d out of (5,10)", v)
	}
	s.Assert(c.Eq(x, c.BV(3, 8)))
	if s.Check().Status != Unsat {
		t.Fatal("want unsat")
	}
}

// TestModelValidatesByEval: for random formulas, if the solver says SAT then
// Eval must confirm the model satisfies the formula; this cross-checks the
// bit-blaster against the independent recursive evaluator.
func TestModelValidatesByEval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 60; iter++ {
		c := NewContext()
		f := randomFormula(c, rng, 4)
		res := Solve(c, f)
		if res.Status == Sat {
			if Eval(f, res.Model) != 1 {
				t.Fatalf("iter %d: model does not satisfy %v", iter, f)
			}
		}
	}
}

// TestSolverMatchesBruteForceEval cross-checks SAT/UNSAT verdicts against
// exhaustive enumeration of the (small) variable space.
func TestSolverMatchesBruteForceEval(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 40; iter++ {
		c := NewContext()
		f := randomFormula(c, rng, 3)
		res := Solve(c, f)
		want := false
		// Variables used: p0,p1 bool; x0 of width 3, x1 of width 6.
		for pm := 0; pm < 4 && !want; pm++ {
			for x0 := uint64(0); x0 < 8 && !want; x0++ {
				for x1 := uint64(0); x1 < 64 && !want; x1++ {
					m := &Model{
						bools: map[string]bool{"p0": pm&1 != 0, "p1": pm&2 != 0},
						bvs:   map[string]uint64{"x0": x0, "x1": x1},
					}
					if Eval(f, m) == 1 {
						want = true
					}
				}
			}
		}
		got := res.Status == Sat
		if got != want {
			t.Fatalf("iter %d: solver=%v brute=%v formula=%v", iter, got, want, f)
		}
	}
}

// randomFormula builds a random boolean formula over p0,p1 (bool), x0 (a
// bitvector of width 3) and x1 (width 6).
func randomFormula(c *Context, rng *rand.Rand, depth int) *Term {
	if depth == 0 || rng.Intn(4) == 0 {
		w := 3 * (1 + rng.Intn(2))
		switch rng.Intn(5) {
		case 0:
			return c.BoolVar("p0")
		case 1:
			return c.BoolVar("p1")
		case 2:
			return c.Eq(randomBV(c, rng, depth, w), randomBV(c, rng, depth, w))
		case 3:
			return c.Ult(randomBV(c, rng, depth, w), randomBV(c, rng, depth, w))
		default:
			return c.Ule(randomBV(c, rng, depth, w), randomBV(c, rng, depth, w))
		}
	}
	switch rng.Intn(6) {
	case 0:
		return c.And(randomFormula(c, rng, depth-1), randomFormula(c, rng, depth-1))
	case 1:
		return c.Or(randomFormula(c, rng, depth-1), randomFormula(c, rng, depth-1))
	case 2:
		return c.Not(randomFormula(c, rng, depth-1))
	case 3:
		return c.Implies(randomFormula(c, rng, depth-1), randomFormula(c, rng, depth-1))
	case 4:
		return c.Iff(randomFormula(c, rng, depth-1), randomFormula(c, rng, depth-1))
	default:
		return c.Ite(randomFormula(c, rng, depth-1), randomFormula(c, rng, depth-1), randomFormula(c, rng, depth-1))
	}
}

// randomBV builds a random bitvector term of width 3 (over x0, or a slice of
// x1) or 6 (over x1).
func randomBV(c *Context, rng *rand.Rand, depth, w int) *Term {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return c.BV(uint64(rng.Intn(1<<w)), w)
		}
		if w == 3 {
			return c.BVVar("x0", 3)
		}
		return c.BVVar("x1", 6)
	}
	op := rng.Intn(3)
	if op == 2 && w == 6 {
		op = 0 // no term is wider than x1 to slice
	}
	switch op {
	case 0:
		return c.Add(randomBV(c, rng, depth-1, w), randomBV(c, rng, depth-1, w))
	case 1:
		return c.Ite(randomFormula(c, rng, depth-1), randomBV(c, rng, depth-1, w), randomBV(c, rng, depth-1, w))
	default:
		return c.Extract(randomBV(c, rng, depth-1, 6), rng.Intn(4), 3)
	}
}

// Property: addition commutes — the formula (x+y != y+x) must be UNSAT.
func TestQuickAdditionCommutes(t *testing.T) {
	f := func(w8 uint8) bool {
		w := int(w8%16) + 1
		c := NewContext()
		x := c.BVVar("x", w)
		y := c.BVVar("y", w)
		res := Solve(c, c.Not(c.Eq(c.Add(x, y), c.Add(y, x))))
		return res.Status == Unsat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: Ult is a strict total order: exactly one of x<y, y<x, x=y.
func TestQuickUltTrichotomy(t *testing.T) {
	f := func(w8 uint8) bool {
		w := int(w8%12) + 1
		c := NewContext()
		x := c.BVVar("x", w)
		y := c.BVVar("y", w)
		lt := c.Ult(x, y)
		gt := c.Ult(y, x)
		eq := c.Eq(x, y)
		exactlyOne := c.Or(
			c.And(lt, c.Not(gt), c.Not(eq)),
			c.And(gt, c.Not(lt), c.Not(eq)),
			c.And(eq, c.Not(lt), c.Not(gt)),
		)
		return Solve(c, c.Not(exactlyOne)).Status == Unsat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestResultStats(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 16)
	res := Solve(c, c.Eq(x, c.BV(1234, 16)))
	if res.NumVars <= 0 || res.NumCons <= 0 {
		t.Fatalf("expected positive stats, got vars=%d cons=%d", res.NumVars, res.NumCons)
	}
}

func TestConflictBudgetUnknown(t *testing.T) {
	// A satisfiable instance propagation alone does not decide: twelve
	// strictly increasing 6-bit values below 13 whose neighbours differ in
	// parity (the low bit of each neighbouring sum is 1).
	build := func(c *Context) *Term {
		var conj []*Term
		vars := make([]*Term, 12)
		for i := range vars {
			vars[i] = c.BVVar("v"+string(rune('a'+i)), 6)
		}
		for i := 0; i < len(vars)-1; i++ {
			conj = append(conj, c.Ult(vars[i], vars[i+1]))
			conj = append(conj, c.Eq(c.Extract(c.Add(vars[i], vars[i+1]), 0, 1), c.BV(1, 1)))
		}
		return c.And(append(conj, c.Ult(vars[len(vars)-1], c.BV(13, 6)))...)
	}
	for _, tc := range []struct {
		budget int64
		want   Status
	}{{1, Unknown}, {-1, Sat}} {
		c := NewContext()
		s := NewSolver(c)
		s.SetConflictBudget(tc.budget)
		s.Assert(build(c))
		if res := s.Check(); res.Status != tc.want {
			t.Fatalf("budget %d: got %v, want %v (%d conflicts)", tc.budget, res.Status, tc.want, res.Stats.Conflicts)
		}
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	c := NewContext()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	c.Eq(c.BV(1, 8), c.BV(1, 4))
}

func TestTermString(t *testing.T) {
	c := NewContext()
	a := c.BoolVar("a")
	x := c.BVVar("x", 8)
	s := c.And(a, c.Eq(x, c.BV(7, 8))).String()
	if s == "" {
		t.Fatal("empty string rendering")
	}
}

func BenchmarkSolveBV32Equality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := NewContext()
		x := c.BVVar("x", 32)
		y := c.BVVar("y", 32)
		f := c.And(c.Eq(c.Add(x, y), c.BV(123456, 32)), c.Ult(x, y))
		if Solve(c, f).Status != Sat {
			b.Fatal("want sat")
		}
	}
}
