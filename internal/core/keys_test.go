package core_test

import (
	"fmt"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/netgen"
	"lightyear/internal/topology"
)

// Key soundness, the external half: the fingerprint-composed keys must split
// checks into exactly the classes the rendered-text keys (core.OldKey, the
// oracle kept in checkkey_test.go) did — a coarser split would hand one
// check's verdict to another, a finer one would lose sharing — and the
// per-owner memos behind them must not outlive an edit.

// partition feeds checks into a running comparison of the two key schemes.
type partition struct {
	t        *testing.T
	newOfOld map[string]string
	oldOfNew map[string]string
	checks   int
}

func newPartition(t *testing.T) *partition {
	return &partition{t: t, newOfOld: map[string]string{}, oldOfNew: map[string]string{}}
}

func (p *partition) add(what string, checks []core.Check) {
	p.t.Helper()
	for _, c := range checks {
		p.checks++
		k, old := c.Key(), core.OldKey(c)
		if prev, ok := p.newOfOld[old]; ok && prev != k {
			p.t.Fatalf("%s: %s: one rendered-text key, two composed keys (the new scheme splits a class)", what, c.Desc)
		}
		if prev, ok := p.oldOfNew[k]; ok && prev != old {
			p.t.Fatalf("%s: %s: one composed key, two rendered-text keys (the new scheme merges classes)", what, c.Desc)
		}
		p.newOfOld[old], p.oldOfNew[k] = k, old
	}
}

func (p *partition) suite(name string, n *topology.Network, params netgen.SuiteParams) {
	p.t.Helper()
	s, ok := netgen.Lookup(name)
	if !ok {
		p.t.Fatalf("no suite %q", name)
	}
	for _, prob := range s.Build(n, params) {
		switch {
		case prob.Safety != nil:
			p.add(prob.Name, prob.Safety.Checks(core.Options{}))
		case prob.Liveness != nil:
			if checks, err := prob.Liveness.Checks(core.Options{}); err == nil {
				p.add(prob.Name, checks)
			}
		}
	}
}

// benchWAN is the 5-region WAN the repository benchmark sweeps.
var benchWAN = netgen.WANParams{Regions: 5, RoutersPerRegion: 4, EdgeRouters: 6, DCsPerRegion: 1, PeersPerEdge: 6}

func TestKeysPartitionLikeRenderedTextOnWAN(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the old key of every check of the 5-region sweep")
	}
	p := newPartition(t)
	p.suite("wan-peering", netgen.WAN(benchWAN, netgen.WANBugs{}), netgen.SuiteParams{Regions: benchWAN.Regions})
	if p.checks != 404118 || len(p.oldOfNew) != 15818 {
		t.Fatalf("the 5-region sweep enumerated %d checks in %d key classes, want 404118 in 15818", p.checks, len(p.oldOfNew))
	}
	// The regional suites add per-location invariants, originate checks and
	// the relabeled no-interference sub-proofs of the liveness paths.
	small := netgen.WANParams{Regions: 2, RoutersPerRegion: 2, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 2}
	for _, name := range []string{"wan-ip-reuse", "wan-ip-liveness", "wan-peering"} {
		p.suite(name, netgen.WAN(small, netgen.WANBugs{}), netgen.SuiteParams{Regions: small.Regions})
	}
	fig1 := netgen.Fig1(netgen.Fig1Options{})
	p.suite("fig1-no-transit", fig1, netgen.SuiteParams{})
	p.suite("fig1-liveness", fig1, netgen.SuiteParams{})
	t.Logf("%d checks, %d key classes under both schemes", p.checks, len(p.oldOfNew))
}

func TestKeysPartitionLikeRenderedTextOnCorpus(t *testing.T) {
	p := newPartition(t)
	members := 0
	for i, m := range corpus.DefaultRoster(1) {
		if i%2 == 1 { // every other member: all families, planted bugs included
			continue
		}
		n, _, err := m.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Ref(), err)
		}
		p.suite(corpus.PropertySuite, n, netgen.SuiteParams{})
		members++
	}
	if members < 10 {
		t.Fatalf("only %d roster members compared, want at least 10", members)
	}
	t.Logf("%d members, %d checks, %d key classes under both schemes", members, p.checks, len(p.oldOfNew))
}

// keysByCheck maps every check of the peering sweep to its key, identified
// by problem, kind and location.
func keysByCheck(t *testing.T, n *topology.Network, regions int) map[string]string {
	t.Helper()
	s, _ := netgen.Lookup("wan-peering")
	out := map[string]string{}
	for _, prob := range s.Build(n, netgen.SuiteParams{Regions: regions}) {
		for _, c := range prob.Safety.Checks(core.Options{}) {
			out[fmt.Sprintf("%s|%s|%s", prob.Name, c.Kind, c.Loc)] = c.Key()
		}
	}
	return out
}

// TestKeysFollowEveryMutation: on a network whose fingerprints are already
// memoised, each netgen.MutationSpec kind — and TightenPeerImports applied in
// place — changes the keys of exactly the checks on the edited sessions'
// edited side. A stale memo would leave them unchanged; an over-eager one is
// caught by the "exactly".
func TestKeysFollowEveryMutation(t *testing.T) {
	p := netgen.WANParams{Regions: 2, RoutersPerRegion: 2, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 2}
	peer, edge := netgen.PeerNode(0, 0), netgen.EdgeRouter(0)
	cases := []struct {
		m    netgen.MutationSpec
		kind core.CheckKind
		at   []topology.Edge
	}{
		{netgen.MutationSpec{Kind: netgen.MutInsertImportDeny, From: peer, To: edge, Seq: 5, Match: "test-net-2"},
			core.ImportCheck, []topology.Edge{{From: peer, To: edge}}},
		{netgen.MutationSpec{Kind: netgen.MutRemoveImportClause, From: peer, To: edge, Seq: 20},
			core.ImportCheck, []topology.Edge{{From: peer, To: edge}}},
		{netgen.MutationSpec{Kind: netgen.MutInsertExportDeny, From: edge, To: peer, Seq: 5, Match: "class-e"},
			core.ExportCheck, []topology.Edge{{From: edge, To: peer}}},
		{netgen.MutationSpec{Kind: netgen.MutRemoveExportClause, From: edge, To: peer, Seq: 10},
			core.ExportCheck, []topology.Edge{{From: edge, To: peer}}},
		{netgen.MutationSpec{Kind: netgen.MutTighten, At: edge},
			core.ImportCheck, []topology.Edge{{From: netgen.PeerNode(0, 0), To: edge}, {From: netgen.PeerNode(0, 1), To: edge}}},
	}
	expectChanged := func(t *testing.T, before, after map[string]string, kind core.CheckKind, at []topology.Edge) {
		t.Helper()
		edited := map[string]bool{}
		for _, e := range at {
			edited[fmt.Sprintf("%s|%s", kind, core.AtEdge(e))] = true
		}
		changed := 0
		for id, k := range before {
			var prob, rest string
			for i := range id {
				if id[i] == '|' {
					prob, rest = id[:i], id[i+1:]
					break
				}
			}
			if (after[id] != k) != edited[rest] {
				t.Fatalf("%s %s: key changed=%v, want %v", prob, rest, after[id] != k, edited[rest])
			}
			if after[id] != k {
				changed++
			}
		}
		if len(after) != len(before) || changed == 0 {
			t.Fatalf("%d checks before, %d after, %d changed", len(before), len(after), changed)
		}
	}
	for _, tc := range cases {
		t.Run(tc.m.Kind, func(t *testing.T) {
			n := netgen.WAN(p, netgen.WANBugs{})
			before := keysByCheck(t, n, p.Regions) // memoises n's fingerprints
			next, err := netgen.ApplyMutation(n, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			expectChanged(t, before, keysByCheck(t, next, p.Regions), tc.kind, tc.at)
			if again := keysByCheck(t, n, p.Regions); fmt.Sprint(again) != fmt.Sprint(before) {
				t.Fatal("mutating a clone changed the original's keys")
			}
		})
	}
	t.Run("tighten-in-place", func(t *testing.T) {
		n := netgen.WAN(p, netgen.WANBugs{})
		before := keysByCheck(t, n, p.Regions)
		if netgen.TightenPeerImports(n, edge) != 2 {
			t.Fatal("expected two peer sessions at the edge router")
		}
		expectChanged(t, before, keysByCheck(t, n, p.Regions), core.ImportCheck, cases[4].at)
	})
}
