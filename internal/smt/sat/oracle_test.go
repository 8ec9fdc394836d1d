package sat

import (
	"math/rand"
	"testing"
)

// random3SAT draws m clauses of three distinct variables over 1..n with
// random signs.
func random3SAT(rng *rand.Rand, n, m int) [][]Lit {
	cls := make([][]Lit, m)
	for i := range cls {
		vs := rng.Perm(n)[:3]
		for _, v := range vs {
			cls[i] = append(cls[i], MkLit(v+1, rng.Intn(2) == 0))
		}
	}
	return cls
}

// bruteForceMasks decides satisfiability by enumerating all 2^n
// assignments, each clause reduced to the bit masks of its positive and
// negative variables. It shares no code with the solver.
func bruteForceMasks(n int, cls [][]Lit) bool {
	pos, neg := make([]uint32, len(cls)), make([]uint32, len(cls))
	for i, c := range cls {
		for _, l := range c {
			if l.Neg() {
				neg[i] |= 1 << (l.Var() - 1)
			} else {
				pos[i] |= 1 << (l.Var() - 1)
			}
		}
	}
	for a := uint32(0); a < 1<<n; a++ {
		ok := true
		for i := range cls {
			if a&pos[i] == 0 && ^a&neg[i] == 0 {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandom3SATOracle is the SAT core's oracle: random 3-SAT near the
// satisfiability threshold (m ≈ 4.26 n, 8 ≤ n ≤ 20, so both verdicts are
// common), decided under every configuration the portfolio races.
// Each verdict must equal brute force, and each Sat model must satisfy
// every clause.
func TestRandom3SATOracle(t *testing.T) {
	configs := []struct {
		name string
		set  func(*Solver)
	}{
		{"default", func(*Solver) {}},
		{"no-vsids", func(s *Solver) { s.SetDisableVSIDS(true) }},
		{"no-restarts", func(s *Solver) { s.SetDisableRestarts(true) }},
		{"positive-phase", func(s *Solver) { s.SetPositivePhase(true) }},
	}
	rng := rand.New(rand.NewSource(426))
	sats := 0
	const instances = 130
	for iter := range instances {
		n := 8 + iter%13
		m := int(4.26*float64(n) + 0.5)
		cls := random3SAT(rng, n, m)
		want := bruteForceMasks(n, cls)
		if want {
			sats++
		}
		for _, cfg := range configs {
			s := New()
			cfg.set(s)
			for range n {
				s.NewVar()
			}
			for _, c := range cls {
				s.AddClause(c...)
			}
			got := s.Solve()
			if (got == Sat) != want || got == Unknown {
				t.Fatalf("iter %d (n=%d m=%d) %s: solver says %v, brute force satisfiable=%v", iter, n, m, cfg.name, got, want)
			}
			if got != Sat {
				continue
			}
			for _, c := range cls {
				ok := false
				for _, l := range c {
					if s.ModelValue(l.Var()) != l.Neg() {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d %s: the model falsifies clause %v", iter, cfg.name, c)
				}
			}
		}
	}
	if sats == 0 || sats == instances {
		t.Fatalf("%d of %d instances satisfiable: the draw is not at the threshold", sats, instances)
	}
	t.Logf("%d of %d instances satisfiable", sats, instances)
}
