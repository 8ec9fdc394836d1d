package netgen_test

import (
	"fmt"
	"testing"

	"lightyear/internal/config"
	"lightyear/internal/core"
	"lightyear/internal/netgen"
	"lightyear/internal/topology"
)

// roundTrip parses src after a cosmetic rewrite — every comment and line
// break dropped by config.Normalize, then a comment prepended — and fails
// unless the result is the network want.
func roundTrip(t *testing.T, src string, want *topology.Network) *topology.Network {
	t.Helper()
	parsed, err := config.Parse("# round trip\n" + config.Normalize(src))
	if err != nil {
		t.Fatalf("normalized configuration does not parse: %v", err)
	}
	if parsed.Fingerprint() != want.Fingerprint() {
		t.Fatalf("normalized configuration is a different network")
	}
	return parsed
}

// TestFig1DSLRoundTrip: the emitted Figure-1 configuration survives a
// cosmetic rewrite as the same network, and that network gives each
// variant's known safety and liveness verdicts.
func TestFig1DSLRoundTrip(t *testing.T) {
	variants := []struct {
		opts           netgen.Fig1Options
		safe, liveness bool
	}{
		{netgen.Fig1Options{}, true, true},
		{netgen.Fig1Options{OmitTransitTag: true}, false, true},
		{netgen.Fig1Options{SkipExportFilter: true}, false, true},
		{netgen.Fig1Options{StripAtR2: true}, false, true},
		{netgen.Fig1Options{ForgetStripAtR3: true}, true, false},
	}
	for _, v := range variants {
		parsed := roundTrip(t, netgen.Fig1DSL(v.opts), netgen.Fig1(v.opts))
		if ok := core.VerifySafety(netgen.Fig1NoTransitProblem(parsed), core.Options{}).OK(); ok != v.safe {
			t.Errorf("%+v: no-transit %v, want %v", v.opts, ok, v.safe)
		}
		rep, err := core.VerifyLiveness(netgen.Fig1LivenessProblem(parsed), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() != v.liveness {
			t.Errorf("%+v: liveness %v, want %v", v.opts, rep.OK(), v.liveness)
		}
	}
}

// TestFullMeshDSLRoundTrip: the emitted full mesh survives a cosmetic
// rewrite as the same network, with n routers and n(n-1) + 2n directed
// edges, and verifies.
func TestFullMeshDSLRoundTrip(t *testing.T) {
	for _, n := range []int{3, 6} {
		parsed := roundTrip(t, netgen.FullMeshDSL(n), netgen.FullMesh(n))
		if got := len(parsed.Routers()); got != n {
			t.Fatalf("n=%d: %d routers", n, got)
		}
		if got, want := parsed.NumEdges(), n*(n-1)+2*n; got != want {
			t.Fatalf("n=%d: %d edges, want %d", n, got, want)
		}
		if !core.VerifySafety(netgen.FullMeshProblem(parsed), core.Options{}).OK() {
			t.Fatalf("n=%d: full mesh does not verify", n)
		}
	}
}

// TestWANDSLRoundTrip: the emitted WAN survives a cosmetic rewrite as the
// same network, and each planted bug fails exactly the property it breaks.
func TestWANDSLRoundTrip(t *testing.T) {
	p := netgen.DefaultWANParams()
	props := netgen.PeeringProperties(p.Regions)
	at := netgen.RegionRouter(0, 0)
	for _, bugs := range []netgen.WANBugs{{}, {MissingBogonFilter: true}, {WrongRegionCommunity: true}} {
		parsed := roundTrip(t, netgen.WANDSL(p, bugs), netgen.WAN(p, bugs))
		if ok := core.VerifySafety(netgen.PeeringProblem(parsed, at, props[0]), core.Options{}).OK(); ok == bugs.MissingBogonFilter {
			t.Errorf("bugs %+v: bogon property %v", bugs, ok)
		}
		if ok := core.VerifySafety(netgen.IPReuseSafetyProblem(parsed, p, 0, netgen.RegionRouter(1, 0)), core.Options{}).OK(); ok == bugs.WrongRegionCommunity {
			t.Errorf("bugs %+v: reuse property %v", bugs, ok)
		}
	}
}

// TestGeneratorVariantsBuild: every generator × bug variant parses from its
// emitted configuration, builds the same network twice, and plants a bug
// that actually changes the network — no two variants share a fingerprint.
func TestGeneratorVariantsBuild(t *testing.T) {
	type variant struct {
		name  string
		build func() *topology.Network
	}
	var variants []variant
	for name, o := range map[string]netgen.Fig1Options{
		"fig1":                    {},
		"fig1-omit-transit-tag":   {OmitTransitTag: true},
		"fig1-skip-export-filter": {SkipExportFilter: true},
		"fig1-strip-at-r2":        {StripAtR2: true},
		"fig1-forget-strip-at-r3": {ForgetStripAtR3: true},
	} {
		variants = append(variants, variant{name, func() *topology.Network { return netgen.Fig1(o) }})
	}
	for _, n := range []int{3, 6, 10} {
		variants = append(variants, variant{fmt.Sprintf("fullmesh-%d", n), func() *topology.Network { return netgen.FullMesh(n) }})
	}
	p := netgen.DefaultWANParams()
	for name, bugs := range map[string]netgen.WANBugs{
		"wan":                        {},
		"wan-missing-bogon-filter":   {MissingBogonFilter: true},
		"wan-wrong-region-community": {WrongRegionCommunity: true},
		"wan-missing-local-pref":     {MissingLocalPref: true},
	} {
		variants = append(variants, variant{name, func() *topology.Network { return netgen.WAN(p, bugs) }})
	}

	seen := map[string]string{}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			fp := v.build().Fingerprint()
			if again := v.build().Fingerprint(); again != fp {
				t.Fatalf("two builds differ: %s vs %s", fp, again)
			}
			if prev, ok := seen[fp]; ok {
				t.Fatalf("same network as %s", prev)
			}
			seen[fp] = v.name
		})
	}
}
