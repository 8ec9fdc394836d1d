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

// sampled is how many members of a key class besides the first are kept
// for comparison, drawn uniformly from the rest.
const sampled = 8

// keyClass is the first check of a key and up to sampled others drawn
// uniformly from the rest.
type keyClass struct {
	first  *core.Obligation
	others []*core.Obligation
	n      int
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
// that only the sampled obligations per key stay reachable. With invertGhosts it
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
		// Reservoir sampling over members 2..n.
		if len(cl.others) < sampled {
			cl.others = append(cl.others, c.Obligation())
		} else if j := k.rng.Intn(cl.n - 1); j < sampled {
			cl.others[j] = c.Obligation()
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
	classes, compared, bad := 0, 0, 0
	for _, key := range k.order {
		cl := k.classes[key]
		first := render(cl.first)
		keysOf[first]++
		if len(cl.others) > 0 {
			classes++
		}
		for _, ob := range cl.others {
			compared++
			if other := render(ob); other != first {
				if bad++; bad <= 5 {
					t.Errorf("one key, two problems:\n  %s\n    %.300s\n  %s\n    %.300s", cl.first.Desc, first, ob.Desc, other)
				}
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d sampled members pose another problem than their class's first", bad, compared)
	}
	t.Logf("%d key classes (%d with two or more checks, %d members compared), %d distinct problems: %d classes repeat a problem another class poses",
		len(k.order), classes, compared, len(keysOf), len(k.order)-len(keysOf))
}

func TestSameKeySameProblemOnWAN(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes up to nine members of each key class of the 5-region sweep, clean and with a planted bug")
	}
	k := newKeyClasses(1)
	params := netgen.SuiteParams{Regions: benchWAN.Regions}
	k.suite(t, "wan-peering", netgen.WAN(benchWAN, netgen.WANBugs{}), params, false)
	if len(k.order) != 1100 {
		t.Fatalf("the 5-region sweep has %d key classes, want 1100", len(k.order))
	}
	// The missing-bogon variant adds the classes of its edited filter; its
	// other checks join the clean sweep's classes.
	k.suite(t, "wan-peering", netgen.WAN(benchWAN, netgen.WANBugs{MissingBogonFilter: true}), params, false)
	if len(k.order) != 1111 {
		t.Fatalf("the clean and missing-bogon sweeps have %d key classes, want 1111", len(k.order))
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
