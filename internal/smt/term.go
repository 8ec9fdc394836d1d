// Package smt provides a quantifier-free SMT layer over the CDCL SAT core in
// internal/smt/sat. It supports the fragment of boolean and fixed-width
// bitvector logic (QF_BV) that encoding BGP route-map semantics needs:
// route attributes are bitvectors (prefix, length, local-pref, MED, AS-path
// length) and booleans (community membership, ghost attributes). The
// operators are exactly the ones the encodings build: boolean constants and
// variables with Not, And, Or, Implies, Iff and Ite; bitvector constants and
// variables with Add, Ite and Extract; and the predicates Eq, Ult and Ule,
// with Ugt and Uge as sugar.
//
// Formulas are built through a Context, which hash-conses terms so that
// structurally equal terms are pointer-equal, and applies light constant
// folding and identity simplifications at construction time. A built formula
// is decided by Solve, which performs Tseitin CNF conversion and bit-blasting
// and returns a Model on SAT.
package smt

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Op identifies a term constructor.
type Op int

// Term operators.
const (
	OpBoolConst Op = iota
	OpBoolVar
	OpNot
	OpAnd
	OpOr
	OpImplies
	OpIff
	OpIteBool // ite(cond, thenBool, elseBool)

	OpBVConst
	OpBVVar
	OpBVAdd
	OpIteBV // ite(cond, thenBV, elseBV)
	OpExtract

	OpEq  // bitvector equality -> bool
	OpUlt // unsigned less-than -> bool
	OpUle // unsigned less-or-equal -> bool
)

func (o Op) String() string {
	switch o {
	case OpBoolConst:
		return "const"
	case OpBoolVar:
		return "var"
	case OpNot:
		return "not"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpImplies:
		return "=>"
	case OpIff:
		return "<=>"
	case OpIteBool, OpIteBV:
		return "ite"
	case OpBVConst:
		return "bvconst"
	case OpBVVar:
		return "bvvar"
	case OpBVAdd:
		return "bvadd"
	case OpExtract:
		return "extract"
	case OpEq:
		return "="
	case OpUlt:
		return "bvult"
	case OpUle:
		return "bvule"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Term is an immutable, hash-consed formula node. Terms must be created
// through a Context; two terms from the same Context are structurally equal
// iff they are pointer-equal.
type Term struct {
	op    Op
	width int     // bit width for bitvector-sorted terms; 0 for bool
	kids  []*Term // operands
	name  string  // variable name (OpBoolVar, OpBVVar)
	cval  uint64  // constant value (OpBVConst; OpBoolConst uses 0/1)
	lo    int     // OpExtract low bit
	id    int     // unique id within the Context
}

// Op returns the operator of the term.
func (t *Term) Op() Op { return t.op }

// IsBool reports whether the term has boolean sort.
func (t *Term) IsBool() bool { return t.width == 0 }

// Name returns the variable name for variable terms.
func (t *Term) Name() string { return t.name }

// ID returns the hash-consing identity of the term within its Context.
func (t *Term) ID() int { return t.id }

// Kids returns the operand terms. The returned slice must not be modified.
func (t *Term) Kids() []*Term { return t.kids }

// String renders the term as an s-expression (for debugging and tests).
func (t *Term) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t *Term) write(b *strings.Builder) {
	switch t.op {
	case OpBoolConst:
		if t.cval != 0 {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case OpBoolVar, OpBVVar:
		b.WriteString(t.name)
	case OpBVConst:
		fmt.Fprintf(b, "#x%x[%d]", t.cval, t.width)
	case OpExtract:
		fmt.Fprintf(b, "(extract %d %d ", t.lo+t.width-1, t.lo)
		t.kids[0].write(b)
		b.WriteString(")")
	default:
		b.WriteString("(")
		b.WriteString(t.op.String())
		for _, k := range t.kids {
			b.WriteString(" ")
			k.write(b)
		}
		b.WriteString(")")
	}
}

// key is the hash-consing key for a term. It holds the first three kid IDs
// inline, so interning a term of at most three kids — every operator but
// And and Or — builds its key without allocating; the IDs of further kids
// are packed into more, four bytes each. nkids keeps a missing kid apart
// from a kid with ID 0. Widths, extract offsets and IDs fit 32 bits: a
// context never holds 2^31 terms.
type key struct {
	op, width, lo, nkids int32
	kids                 [3]int32
	cval                 uint64
	name                 string
	more                 string
}

func termKey(t *Term) key {
	k := key{op: int32(t.op), width: int32(t.width), lo: int32(t.lo), nkids: int32(len(t.kids)), cval: t.cval, name: t.name}
	for i := range min(len(t.kids), len(k.kids)) {
		k.kids[i] = int32(t.kids[i].id)
	}
	if len(t.kids) > len(k.kids) {
		b := make([]byte, 0, 4*(len(t.kids)-len(k.kids)))
		for _, kid := range t.kids[len(k.kids):] {
			b = binary.LittleEndian.AppendUint32(b, uint32(kid.id))
		}
		k.more = string(b)
	}
	return k
}

// Context creates and hash-conses terms. A Context is not safe for
// concurrent use; verification workers each build formulas in their own
// Context.
type Context struct {
	table  map[key]*Term
	nextID int

	tt *Term // canonical true
	ff *Term // canonical false
}

// NewContext returns an empty term context.
func NewContext() *Context {
	c := &Context{table: make(map[key]*Term)}
	c.tt = c.intern(Term{op: OpBoolConst, cval: 1})
	c.ff = c.intern(Term{op: OpBoolConst, cval: 0})
	return c
}

// NumTerms returns the number of distinct terms created in this context.
func (c *Context) NumTerms() int { return c.nextID }

// intern returns the context's term structurally equal to t, adding a copy
// of t when there is none. t and its kids slice are not retained, so
// callers build them on the stack.
func (c *Context) intern(t Term) *Term {
	k := termKey(&t)
	if existing, ok := c.table[k]; ok {
		return existing
	}
	n := new(Term)
	*n = t
	if len(t.kids) > 0 {
		n.kids = append([]*Term(nil), t.kids...)
	}
	n.id = c.nextID
	c.nextID++
	c.table[k] = n
	return n
}

// True returns the boolean constant true.
func (c *Context) True() *Term { return c.tt }

// False returns the boolean constant false.
func (c *Context) False() *Term { return c.ff }

// Bool returns the boolean constant for v.
func (c *Context) Bool(v bool) *Term {
	if v {
		return c.tt
	}
	return c.ff
}

// BoolVar returns the boolean variable with the given name. Calling it twice
// with the same name yields the same term.
func (c *Context) BoolVar(name string) *Term {
	return c.intern(Term{op: OpBoolVar, name: name})
}

// BV returns a bitvector constant of the given width. The value is truncated
// to the width.
func (c *Context) BV(value uint64, width int) *Term {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("smt: invalid bitvector width %d", width))
	}
	if width < 64 {
		value &= (1 << width) - 1
	}
	return c.intern(Term{op: OpBVConst, width: width, cval: value})
}

// BVVar returns the bitvector variable with the given name and width.
func (c *Context) BVVar(name string, width int) *Term {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("smt: invalid bitvector width %d", width))
	}
	t := c.intern(Term{op: OpBVVar, width: width, name: name})
	if t.width != width {
		panic(fmt.Sprintf("smt: bitvector variable %q redeclared with width %d (was %d)", name, width, t.width))
	}
	return t
}

func (c *Context) checkBool(t *Term, who string) {
	if !t.IsBool() {
		panic(fmt.Sprintf("smt: %s requires boolean operand, got width-%d bitvector", who, t.width))
	}
}

func (c *Context) checkBVPair(a, b *Term, who string) {
	if a.IsBool() || b.IsBool() {
		panic(fmt.Sprintf("smt: %s requires bitvector operands", who))
	}
	if a.width != b.width {
		panic(fmt.Sprintf("smt: %s width mismatch: %d vs %d", who, a.width, b.width))
	}
}

// Not returns the negation of a boolean term.
func (c *Context) Not(t *Term) *Term {
	c.checkBool(t, "not")
	switch t.op {
	case OpBoolConst:
		return c.Bool(t.cval == 0)
	case OpNot:
		return t.kids[0]
	}
	return c.intern(Term{op: OpNot, kids: []*Term{t}})
}

// And returns the conjunction of the given boolean terms. And() is true.
func (c *Context) And(ts ...*Term) *Term {
	var out []*Term
	for _, t := range ts {
		c.checkBool(t, "and")
		if t == c.ff {
			return c.ff
		}
		if t == c.tt {
			continue
		}
		if t.op == OpAnd {
			out = append(out, t.kids...)
			continue
		}
		out = append(out, t)
	}
	out = dedupe(out)
	switch len(out) {
	case 0:
		return c.tt
	case 1:
		return out[0]
	}
	if complementary(out) {
		return c.ff
	}
	return c.intern(Term{op: OpAnd, kids: out})
}

// Or returns the disjunction of the given boolean terms. Or() is false.
func (c *Context) Or(ts ...*Term) *Term {
	var out []*Term
	for _, t := range ts {
		c.checkBool(t, "or")
		if t == c.tt {
			return c.tt
		}
		if t == c.ff {
			continue
		}
		if t.op == OpOr {
			out = append(out, t.kids...)
			continue
		}
		out = append(out, t)
	}
	out = dedupe(out)
	switch len(out) {
	case 0:
		return c.ff
	case 1:
		return out[0]
	}
	if complementary(out) {
		return c.tt
	}
	return c.intern(Term{op: OpOr, kids: out})
}

// complementary reports whether ts holds a term and its negation: a kid
// Not(x) looks for x, which covers every pair, so no Not is interned to
// ask.
func complementary(ts []*Term) bool {
	for _, t := range ts {
		if t.op == OpNot && contains(ts, t.kids[0]) {
			return true
		}
	}
	return false
}

func dedupe(ts []*Term) []*Term {
	seen := make(map[*Term]struct{}, len(ts))
	out := ts[:0]
	for _, t := range ts {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

func contains(ts []*Term, t *Term) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// Implies returns a => b.
func (c *Context) Implies(a, b *Term) *Term {
	c.checkBool(a, "implies")
	c.checkBool(b, "implies")
	if a == c.tt {
		return b
	}
	if a == c.ff || b == c.tt {
		return c.tt
	}
	if b == c.ff {
		return c.Not(a)
	}
	if a == b {
		return c.tt
	}
	return c.intern(Term{op: OpImplies, kids: []*Term{a, b}})
}

// Iff returns a <=> b.
func (c *Context) Iff(a, b *Term) *Term {
	c.checkBool(a, "iff")
	c.checkBool(b, "iff")
	if a == b {
		return c.tt
	}
	if a == c.tt {
		return b
	}
	if b == c.tt {
		return a
	}
	if a == c.ff {
		return c.Not(b)
	}
	if b == c.ff {
		return c.Not(a)
	}
	if a.id > b.id {
		a, b = b, a
	}
	return c.intern(Term{op: OpIff, kids: []*Term{a, b}})
}

// Ite returns if-then-else over booleans or bitvectors, dispatching on the
// sort of the branches (which must agree).
func (c *Context) Ite(cond, then, els *Term) *Term {
	c.checkBool(cond, "ite condition")
	if then.IsBool() != els.IsBool() || then.width != els.width {
		panic("smt: ite branch sorts differ")
	}
	if cond == c.tt {
		return then
	}
	if cond == c.ff {
		return els
	}
	if then == els {
		return then
	}
	if then.IsBool() {
		if then == c.tt && els == c.ff {
			return cond
		}
		if then == c.ff && els == c.tt {
			return c.Not(cond)
		}
		return c.intern(Term{op: OpIteBool, kids: []*Term{cond, then, els}})
	}
	return c.intern(Term{op: OpIteBV, width: then.width, kids: []*Term{cond, then, els}})
}

// Eq returns bitvector equality a = b (a boolean term). For boolean operands
// it returns Iff.
func (c *Context) Eq(a, b *Term) *Term {
	if a.IsBool() && b.IsBool() {
		return c.Iff(a, b)
	}
	c.checkBVPair(a, b, "=")
	if a == b {
		return c.tt
	}
	if a.op == OpBVConst && b.op == OpBVConst {
		return c.Bool(a.cval == b.cval)
	}
	if a.id > b.id {
		a, b = b, a
	}
	return c.intern(Term{op: OpEq, kids: []*Term{a, b}})
}

// Ult returns unsigned a < b.
func (c *Context) Ult(a, b *Term) *Term {
	c.checkBVPair(a, b, "bvult")
	if a == b {
		return c.ff
	}
	if a.op == OpBVConst && b.op == OpBVConst {
		return c.Bool(a.cval < b.cval)
	}
	return c.intern(Term{op: OpUlt, kids: []*Term{a, b}})
}

// Ule returns unsigned a <= b.
func (c *Context) Ule(a, b *Term) *Term {
	c.checkBVPair(a, b, "bvule")
	if a == b {
		return c.tt
	}
	if a.op == OpBVConst && b.op == OpBVConst {
		return c.Bool(a.cval <= b.cval)
	}
	return c.intern(Term{op: OpUle, kids: []*Term{a, b}})
}

// Ugt returns unsigned a > b.
func (c *Context) Ugt(a, b *Term) *Term { return c.Ult(b, a) }

// Uge returns unsigned a >= b.
func (c *Context) Uge(a, b *Term) *Term { return c.Ule(b, a) }

// Add returns bitvector addition (modular).
func (c *Context) Add(a, b *Term) *Term {
	c.checkBVPair(a, b, "bvadd")
	if a.op == OpBVConst && b.op == OpBVConst {
		return c.BV(a.cval+b.cval, a.width)
	}
	if a.op == OpBVConst && a.cval == 0 {
		return b
	}
	if b.op == OpBVConst && b.cval == 0 {
		return a
	}
	if a.id > b.id {
		a, b = b, a
	}
	return c.intern(Term{op: OpBVAdd, width: a.width, kids: []*Term{a, b}})
}

// Extract returns bits [lo+width-1 : lo] of a bitvector.
func (c *Context) Extract(a *Term, lo, width int) *Term {
	if a.IsBool() {
		panic("smt: extract requires a bitvector")
	}
	if lo < 0 || width <= 0 || lo+width > a.width {
		panic(fmt.Sprintf("smt: extract [%d+%d] out of range for width %d", lo, width, a.width))
	}
	if lo == 0 && width == a.width {
		return a
	}
	if a.op == OpBVConst {
		return c.BV(a.cval>>uint(lo), width)
	}
	return c.intern(Term{op: OpExtract, width: width, lo: lo, kids: []*Term{a}})
}
