package core_test

import (
	"math/rand"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/netgen"
	"lightyear/internal/smt"
	"lightyear/internal/topology"
)

// Key soundness, the semantic half: two checks with one key must pose one
// problem. Encode names its variables with a fixed route name, so equal
// problems render equal root terms; a rendering that differs within a key
// class is a fact the key leaves out.

// keyClass is the first check of a key and one other drawn uniformly from
// the rest.
type keyClass struct {
	first, other *core.Obligation
	n            int
}

type keyClasses struct {
	rng     *rand.Rand
	classes map[string]*keyClass
	order   []string
}

func newKeyClasses(seed int64) *keyClasses {
	return &keyClasses{rng: rand.New(rand.NewSource(seed)), classes: map[string]*keyClass{}}
}

// suite adds every check of suite name over n, one problem at a time, so
// that only two obligations per key stay reachable. With invertGhosts it
// adds each problem a second time with every import ghost value inverted:
// the same filters and invariants at the same locations under other ghost
// updates, which only the key's ghost-set part tells apart.
func (k *keyClasses) suite(t *testing.T, name string, n *topology.Network, params netgen.SuiteParams, invertGhosts bool) {
	t.Helper()
	s, ok := netgen.Lookup(name)
	if !ok {
		t.Fatalf("no suite %q", name)
	}
	for _, prob := range s.Build(n, params) {
		k.add(prob.Safety.Checks(core.Options{}))
		if invertGhosts {
			inv := *prob.Safety
			inv.Ghosts = make([]core.GhostDef, len(prob.Safety.Ghosts))
			for i, g := range prob.Safety.Ghosts {
				if on := g.OnImport; on != nil {
					g.OnImport = func(e topology.Edge) (bool, bool) {
						v, set := on(e)
						return !v, set
					}
				}
				inv.Ghosts[i] = g
			}
			k.add(inv.Checks(core.Options{}))
		}
	}
}

func (k *keyClasses) add(checks []core.Check) {
	for _, c := range checks {
		cl := k.classes[c.Key()]
		if cl == nil {
			k.classes[c.Key()] = &keyClass{first: c.Obligation(), n: 1}
			k.order = append(k.order, c.Key())
			continue
		}
		cl.n++
		if k.rng.Intn(cl.n-1) == 0 { // reservoir sampling over members 2..n
			cl.other = c.Obligation()
		}
	}
}

// render is the problem an obligation poses: its violation formula, or for
// an originate check (decided without one) its verdict and witness.
func render(ob *core.Obligation) string {
	if ob.Concrete() {
		ok, ce := ob.EvalConcrete()
		if ok {
			return "originate: ok"
		}
		return "originate: " + ce.String()
	}
	return ob.Encode(smt.NewContext()).String()
}

// check requires one rendering per key class and logs the converse: how
// many key classes pose a problem another class already poses (sharing the
// keys miss).
func (k *keyClasses) check(t *testing.T) {
	t.Helper()
	keysOf := map[string]int{}
	compared, bad := 0, 0
	for _, key := range k.order {
		cl := k.classes[key]
		first := render(cl.first)
		keysOf[first]++
		if cl.other == nil {
			continue
		}
		compared++
		if other := render(cl.other); other != first {
			if bad++; bad <= 5 {
				t.Errorf("one key, two problems:\n  %s\n    %.300s\n  %s\n    %.300s", cl.first.Desc, first, cl.other.Desc, other)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d key classes pose two problems", bad, compared)
	}
	t.Logf("%d key classes (%d with two or more checks compared), %d distinct problems: %d classes repeat a problem another class poses",
		len(k.order), compared, len(keysOf), len(k.order)-len(keysOf))
}

func TestSameKeySameProblemOnWAN(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes two members of each of the 15,818 key classes of the 5-region sweep")
	}
	k := newKeyClasses(1)
	k.suite(t, "wan-peering", netgen.WAN(benchWAN, netgen.WANBugs{}), netgen.SuiteParams{Regions: benchWAN.Regions}, false)
	if len(k.order) != 15818 {
		t.Fatalf("the 5-region sweep has %d key classes, want 15818", len(k.order))
	}
	k.check(t)
}

func TestSameKeySameProblemOnRoster(t *testing.T) {
	k := newKeyClasses(1)
	for i, m := range corpus.DefaultRoster(7) {
		if i%2 == 1 { // every other member: all families, planted bugs included
			continue
		}
		n, _, err := m.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Ref(), err)
		}
		k.suite(t, corpus.PropertySuite, n, netgen.SuiteParams{}, true)
	}
	k.check(t)
}
