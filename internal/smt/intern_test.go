package smt

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestInternKeyKidIDs: the hash-consing key tells apart kid ID sequences
// whose decimal renderings run together (1,23 against 12,3), in the inline
// slots and beyond the third kid, and a missing kid from a kid with ID 0.
func TestInternKeyKidIDs(t *testing.T) {
	kids := func(ids ...int) []*Term {
		ts := make([]*Term, len(ids))
		for i, id := range ids {
			ts[i] = &Term{id: id}
		}
		return ts
	}
	distinct := [][]int{
		{1, 23}, {12, 3}, {123}, {0}, {},
		{0, 0}, {0, 0, 0}, {0, 0, 0, 0},
		{5, 6, 7, 1, 23}, {5, 6, 7, 12, 3}, {5, 6, 7, 123},
		{5, 6, 7, 256}, {5, 6, 7, 1, 0}, {5, 6, 7, 0, 1},
		{5, 6, 7, 8, 9, 10}, {5, 6, 7, 8, 9},
	}
	seen := map[key][]int{}
	for _, ids := range distinct {
		k := termKey(&Term{op: OpAnd, kids: kids(ids...)})
		if prev, dup := seen[k]; dup {
			t.Fatalf("kids %v and %v share a key", prev, ids)
		}
		seen[k] = ids
		if termKey(&Term{op: OpAnd, kids: kids(ids...)}) != k {
			t.Fatalf("kids %v: two keys for one sequence", ids)
		}
	}
}

// TestHashConsingManyKids: conjunctions of more than three kids, with IDs
// on both sides of digit boundaries, are pointer-equal exactly when their
// kid sequences are equal.
func TestHashConsingManyKids(t *testing.T) {
	c := NewContext()
	vars := make([]*Term, 120) // IDs 2..121: one, two and three digits
	for i := range vars {
		vars[i] = c.BoolVar(fmt.Sprintf("v%d", i))
	}
	rng := rand.New(rand.NewSource(5))
	bySeq := map[string]*Term{}
	seqOf := map[*Term]string{}
	for range 3000 {
		n := 2 + rng.Intn(6)
		perm := rng.Perm(len(vars))[:n]
		ks := make([]*Term, n)
		for i, j := range perm {
			ks[i] = vars[j]
		}
		seq := fmt.Sprint(perm)
		got := c.And(ks...)
		if c.And(ks...) != got {
			t.Fatalf("And%v built twice gave two terms", perm)
		}
		if prev, ok := bySeq[seq]; ok && prev != got {
			t.Fatalf("And%v built twice gave two terms", perm)
		}
		if prev, ok := seqOf[got]; ok && prev != seq {
			t.Fatalf("And%s and And%s are one term", prev, seq)
		}
		bySeq[seq], seqOf[got] = got, seq
		if len(got.Kids()) != n {
			t.Fatalf("And%v has %d kids", perm, len(got.Kids()))
		}
	}
	// A sequence that is another's prefix stays a different term.
	abc := vars[:4]
	if c.And(abc...) == c.And(abc[:3]...) || c.And(abc...) != c.And(abc...) {
		t.Fatal("prefix sequences share a term")
	}
}
