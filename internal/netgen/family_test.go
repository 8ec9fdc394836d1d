package netgen_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/netgen"
	"lightyear/internal/topology"
)

// testdata/families.golden holds, for every problem of every registered
// suite on the networks below, a digest of the checks the problem poses on
// its own: their kinds, locations, keys and rendered descriptions, in
// order. It was written with -update by the tree that built every
// (property, router) problem from scratch, so a suite that poses one
// problem at many routers (core.SafetyProblem.At) must pose exactly what
// those problems did.
var updateFamilies = flag.Bool("update", false, "rewrite testdata/families.golden")

const familiesPath = "testdata/families.golden"

type familyNet struct {
	name   string
	n      *topology.Network
	params netgen.SuiteParams
}

func familyNets(t *testing.T) []familyNet {
	t.Helper()
	bench := netgen.WANParams{Regions: 5, RoutersPerRegion: 4, EdgeRouters: 6, DCsPerRegion: 1, PeersPerEdge: 6}
	nets := []familyNet{
		{"fig1", netgen.Fig1(netgen.Fig1Options{}), netgen.SuiteParams{}},
		{"fullmesh-8", netgen.FullMesh(8), netgen.SuiteParams{}},
		{"wan-5", netgen.WAN(bench, netgen.WANBugs{}), netgen.SuiteParams{Regions: 5}},
		{"wan-5-missing-bogon", netgen.WAN(bench, netgen.WANBugs{MissingBogonFilter: true}), netgen.SuiteParams{Regions: 5}},
	}
	for _, m := range corpus.DefaultRoster(7)[:4] {
		n, _, err := m.Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Ref(), err)
		}
		nets = append(nets, familyNet{m.Ref(), n, netgen.SuiteParams{}})
	}
	return nets
}

// checksDigest renders what a problem poses on its own.
func checksDigest(p netgen.Problem) string {
	var checks []core.Check
	var err error
	switch {
	case p.Safety != nil:
		checks = p.Safety.Checks(core.Options{})
	case p.Liveness != nil:
		checks, err = p.Liveness.Checks(core.Options{})
	}
	if err != nil {
		return "error " + err.Error()
	}
	h := sha256.New()
	for _, c := range checks {
		fmt.Fprintf(h, "%s|%s|%s|%s\n", c.Kind, c.Loc, c.Key(), c.Desc)
	}
	return fmt.Sprintf("%d %x", len(checks), h.Sum(nil)[:12])
}

// TestFamiliesPoseWhatProblemsDid holds every problem's checks to the
// golden digests, and every safety problem's edge frame to its family's.
func TestFamiliesPoseWhatProblemsDid(t *testing.T) {
	var got []string
	for _, fn := range familyNets(t) {
		for _, s := range netgen.Suites() {
			families := make(map[*core.SafetyProblem]bool)
			for _, p := range s.Build(fn.n, fn.params) {
				got = append(got, fmt.Sprintf("%s %s %s %s", fn.name, s.Name, p.Name, checksDigest(p)))
				if p.Safety == nil {
					continue
				}
				families[p.Safety.Family()] = true
				if p.Safety.Frame() != p.Safety.Family().Frame() {
					t.Errorf("%s: %s: the frame is not its family's", fn.name, p.Name)
				}
			}
			// One family per peering property, and per region for ip-reuse.
			want := map[string]int{"wan-peering": 11, "wan-ip-reuse": fn.params.EffectiveRegions()}[s.Name]
			if want > 0 && len(families) != want {
				t.Errorf("%s: %s poses %d families, want %d", fn.name, s.Name, len(families), want)
			}
		}
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateFamilies {
		if err := os.WriteFile(familiesPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(familiesPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Errorf("%d problems, the golden file has %d", len(got), len(wantLines))
	}
	for i := range min(len(got), len(wantLines)) {
		if got[i] != wantLines[i] {
			t.Fatalf("problem %d:\n  got  %s\n  want %s", i, got[i], wantLines[i])
		}
	}
}
