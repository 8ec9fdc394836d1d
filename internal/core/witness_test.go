package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/netgen"
)

// replay reports why a failing check's witness does not reproduce the
// violation under the concrete semantics (RouteMap.Apply, the ghost
// actions and Pred.Eval), or "" when it does:
//
//   - a safety filter check: the filter accepts an input satisfying pre,
//     and post fails on the output;
//   - a must-accept filter check: pre holds on the input, and the filter
//     rejects it or post fails on the output;
//   - an implication: pre holds on the input and post does not;
//   - an originate check: the originated route violates the invariant.
func replay(ob *core.Obligation, ce *core.Counterexample) string {
	if ce == nil || ce.Input == nil {
		return "no witness route"
	}
	pre, post := ob.Predicates()
	in := ce.Input
	switch {
	case ob.Concrete():
		if post.Eval(in) {
			return "the originated route satisfies the invariant"
		}
		return ""
	case ob.Kind == core.ImplicationCheck:
		if !pre.Eval(in) {
			return "the input violates the implication's pre-condition"
		}
		if post.Eval(in) {
			return "the input satisfies the implication's post-condition"
		}
		return ""
	}
	if !pre.Eval(in) {
		return "the input violates the filter's pre-condition"
	}
	out, ok := ob.RouteMap().Apply(in)
	if ok {
		for _, a := range ob.GhostActions() {
			a.Apply(out)
		}
	}
	switch {
	case ob.MustAccept() && ok && post.Eval(out):
		return "the filter accepts the input and the output satisfies post"
	case !ob.MustAccept() && !ok:
		return "the filter rejects the input"
	case !ob.MustAccept() && post.Eval(out):
		return "the output satisfies post"
	}
	return ""
}

// TestEveryWitnessReplays solves, per source, one check of every key class
// of the planted-property problems of the small WAN bug variants and of the
// default roster, under the stock solve configuration and the positive-phase
// portfolio variant (whose models set every unconstrained atom), and replays
// every witness against every member of its class, each on its own route
// map, ghost actions and predicates — what a failure the cache serves to
// another session shows. A witness that does not replay describes a
// violation the network does not have: the AS-path filler once contradicted
// the model it came from, and a member that does not replay its class's
// witness poses another problem than the key says.
func TestEveryWitnessReplays(t *testing.T) {
	type source struct {
		name     string
		problems []netgen.Problem
	}
	var sources []source
	small := netgen.WANParams{Regions: 2, RoutersPerRegion: 2, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 2}
	for _, bugs := range []netgen.WANBugs{{MissingBogonFilter: true}, {WrongRegionCommunity: true}, {MissingLocalPref: true}} {
		n := netgen.WAN(small, bugs)
		for _, name := range []string{"wan-peering", "wan-ip-reuse", "wan-ip-liveness"} {
			suite, _ := netgen.Lookup(name)
			sources = append(sources, source{
				name:     fmt.Sprintf("%s %+v", name, bugs),
				problems: suite.Build(n, netgen.SuiteParams{Regions: small.Regions}),
			})
		}
	}
	suite, _ := netgen.Lookup(corpus.PropertySuite)
	for _, m := range corpus.DefaultRoster(7) {
		n, gt, err := m.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Ref(), err)
		}
		var planted []netgen.Problem
		for _, p := range suite.Build(n, netgen.SuiteParams{}) {
			if strings.HasPrefix(p.Name, gt.Property+"@") {
				planted = append(planted, p)
			}
		}
		sources = append(sources, source{name: m.Ref(), problems: planted})
	}

	// Every check of every source, by key: a class spans the sessions,
	// problems and networks that pose one check, as the engine's cache does.
	// Each source solves the first of its own members of each class.
	type member struct {
		src string
		ob  *core.Obligation
	}
	classes := map[string][]member{}
	firsts := make([][]member, len(sources))
	for i, src := range sources {
		seen := map[string]bool{}
		for _, p := range src.problems {
			var checks []core.Check
			if p.Safety != nil {
				checks = p.Safety.Checks(core.Options{})
			} else if cs, err := p.Liveness.Checks(core.Options{}); err == nil {
				checks = cs
			}
			for _, c := range checks {
				m := member{src.name + " " + p.Name, c.Obligation()}
				classes[c.Key()] = append(classes[c.Key()], m)
				if !seen[c.Key()] {
					seen[c.Key()] = true
					firsts[i] = append(firsts[i], m)
				}
			}
		}
	}

	configs := []struct {
		name string
		cfg  core.SolveConfig
	}{{"default", core.SolveConfig{}}, {"positive-phase", core.SolveConfig{PositivePhase: true}}}
	fails, replayed := 0, 0
	for _, cfg := range configs {
		for _, first := range firsts {
			for _, f := range first {
				cr := f.ob.Solve(context.Background(), cfg.cfg)
				if cr.Status != core.StatusFail {
					continue
				}
				fails++
				for _, m := range classes[f.ob.Key()] {
					replayed++
					if why := replay(m.ob, cr.Counterexample); why != "" {
						t.Errorf("%s under %s: the witness of %s (%s) does not replay at %s: %s\n%s",
							m.src, cfg.name, f.ob.Desc, f.src, m.ob.Desc, why, cr.Counterexample)
					}
				}
			}
		}
	}
	if fails == 0 {
		t.Fatal("no check failed: the planted bugs went undetected")
	}
	t.Logf("%d key classes; %d failing solves, their witnesses replayed %d times across their classes", len(classes), fails, replayed)
}
