package smt

import (
	"math/rand"
	"testing"
)

func TestOneBitVectors(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 1)
	y := c.BVVar("y", 1)
	// x + y = 0 and x < y forces x=0... but 0+1=1 != 0; actually x<y with
	// width 1 forces x=0,y=1, sum=1. So the conjunction is unsat.
	f := c.And(c.Eq(c.Add(x, y), c.BV(0, 1)), c.Ult(x, y))
	if Solve(c, f).Status != Unsat {
		t.Fatal("want unsat")
	}
	// At width 1 addition is xor: x + y = 1 is sat with x != y.
	g := c.Eq(c.Add(x, y), c.BV(1, 1))
	res := Solve(c, g)
	if res.Status != Sat {
		t.Fatal("want sat")
	}
	if res.Model.BV("x") == res.Model.BV("y") {
		t.Fatal("one-bit sum model wrong")
	}
}

func TestSixtyFourBitVectors(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 64)
	big := uint64(0xDEADBEEFCAFEBABE)
	res := Solve(c, c.Eq(x, c.BV(big, 64)))
	if res.Status != Sat || res.Model.BV("x") != big {
		t.Fatalf("64-bit equality: %v %x", res.Status, res.Model.BV("x"))
	}
	// Overflow wraps: max + 1 = 0.
	f := c.Eq(c.Add(c.BV(^uint64(0), 64), c.BV(1, 64)), c.BV(0, 64))
	if f != c.True() {
		t.Fatal("constant fold of 64-bit wraparound")
	}
}

func TestNestedExtract(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 16)
	// A slice of a slice is the slice of x at the summed offset, for all x.
	inner := c.Extract(c.Extract(x, 4, 8), 2, 4)
	if res := Solve(c, c.Not(c.Eq(inner, c.Extract(x, 6, 4)))); res.Status != Unsat {
		t.Fatalf("nested extract should be the direct slice: %v", res.Status)
	}
}

func TestDeepIteChain(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 8)
	acc := c.BV(0, 8)
	for i := 0; i < 40; i++ {
		cond := c.Eq(x, c.BV(uint64(i), 8))
		acc = c.Ite(cond, c.BV(uint64(i*2), 8), acc)
	}
	// When x = 13, the chain yields 26.
	f := c.And(c.Eq(x, c.BV(13, 8)), c.Eq(acc, c.BV(26, 8)))
	if Solve(c, f).Status != Sat {
		t.Fatal("ite chain broken")
	}
	g := c.And(c.Eq(x, c.BV(13, 8)), c.Not(c.Eq(acc, c.BV(26, 8))))
	if Solve(c, g).Status != Unsat {
		t.Fatal("ite chain must be deterministic")
	}
}

func TestBVOpsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 40; iter++ {
		w := 1 + rng.Intn(16)
		mask := uint64(1)<<w - 1
		a := rng.Uint64() & mask
		b := rng.Uint64() & mask
		c := NewContext()
		x := c.BVVar("x", w)
		y := c.BVVar("y", w)
		f := c.And(
			c.Eq(x, c.BV(a, w)),
			c.Eq(y, c.BV(b, w)),
		)
		checks := []struct {
			got  *Term
			want uint64
		}{
			{c.Add(x, y), (a + b) & mask},
			{c.Add(x, x), (2 * a) & mask},
			{c.Add(x, c.BV(mask, w)), (a + mask) & mask},
			{c.Ite(c.Ult(x, y), x, y), min(a, b)},
			{c.Ite(c.Ule(x, y), y, x), max(a, b)},
		}
		s := NewSolver(c)
		s.Assert(f)
		obs := make([]*Term, len(checks))
		for i, ch := range checks {
			obs[i] = c.BVVar("obs"+string(rune('a'+i)), w)
			s.Assert(c.Eq(obs[i], ch.got))
		}
		res := s.Check()
		if res.Status != Sat {
			t.Fatalf("iter %d: unsat", iter)
		}
		for i, ch := range checks {
			if got := res.Model.BV("obs" + string(rune('a'+i))); got != ch.want {
				t.Fatalf("iter %d width %d op %d: got %x want %x (a=%x b=%x)", iter, w, i, got, ch.want, a, b)
			}
		}
	}
}

func TestUnconstrainedModelDefaults(t *testing.T) {
	c := NewContext()
	a := c.BoolVar("a")
	res := Solve(c, c.Or(a, c.Not(a))) // tautology simplifies to true
	if res.Status != Sat {
		t.Fatal("want sat")
	}
	// Variables never lowered have default values.
	if res.Model.Bool("never") || res.Model.BV("neverbv") != 0 {
		t.Fatal("defaults wrong")
	}
	if res.Model.HasBool("never") || res.Model.HasBV("neverbv") {
		t.Fatal("HasBool/HasBV must report absence")
	}
}

func TestSolverReuseManyChecks(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 8)
	s := NewSolver(c)
	for i := 0; i < 20; i++ {
		s.Assert(c.Not(c.Eq(x, c.BV(uint64(i), 8))))
		res := s.Check()
		if res.Status != Sat {
			t.Fatalf("round %d: want sat", i)
		}
		if v := res.Model.BV("x"); v < uint64(i+1) {
			t.Fatalf("round %d: model %d excluded", i, v)
		}
	}
}

func TestExtractOutOfRangePanics(t *testing.T) {
	c := NewContext()
	x := c.BVVar("x", 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Extract(x, 5, 4) // 5+4 > 8
}

func TestIteSortMismatchPanics(t *testing.T) {
	c := NewContext()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Ite(c.BoolVar("c"), c.BoolVar("a"), c.BV(1, 4))
}

func TestEvalCoversAllOps(t *testing.T) {
	c := NewContext()
	m := &Model{bools: map[string]bool{"p": true}, bvs: map[string]uint64{"x": 5, "y": 3}}
	x := c.BVVar("x", 4)
	y := c.BVVar("y", 4)
	p := c.BoolVar("p")
	q := c.BoolVar("q")
	cases := []struct {
		t    *Term
		want uint64
	}{
		{c.True(), 1},
		{c.And(p, q), 0},
		{c.Or(c.Not(p), q), 0},
		{c.Implies(p, q), 0},
		{c.Iff(p, c.Not(q)), 1},
		{c.Ite(p, q, c.Not(q)), 0},
		{c.Ite(p, c.BV(9, 4), x), 9},
		{c.Eq(x, c.BV(5, 4)), 1},
		{c.Ult(y, x), 1},
		{c.Ule(x, y), 0},
		{c.Add(x, y), 8},
		{c.Extract(x, 1, 2), 2},
	}
	seen := make(map[Op]bool)
	var walk func(*Term)
	walk = func(t *Term) {
		seen[t.Op()] = true
		for _, k := range t.Kids() {
			walk(k)
		}
	}
	for i, tc := range cases {
		walk(tc.t)
		if got := Eval(tc.t, m); got != tc.want {
			t.Errorf("case %d (%v): got %d want %d", i, tc.t, got, tc.want)
		}
	}
	for op := OpBoolConst; op <= OpUle; op++ {
		if !seen[op] {
			t.Errorf("no case evaluates %v", op)
		}
	}
}
