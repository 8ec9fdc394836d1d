package delta_test

import (
	"errors"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/store"
	"lightyear/internal/topology"
)

// testWANParams is a small-but-structured WAN: 3 backbone routers, one
// Internet edge router with two peers, two regions with one DC each.
var testWANParams = netgen.WANParams{
	Regions: 2, RoutersPerRegion: 1, EdgeRouters: 1, DCsPerRegion: 1, PeersPerEdge: 2,
}

func wanSuite(t *testing.T) netgen.Suite {
	t.Helper()
	suite, ok := netgen.Lookup("wan-peering")
	if !ok {
		t.Fatal("wan-peering suite not registered")
	}
	return suite
}

// TestIncrementalProofOnWAN is the end-to-end incremental claim: mutating
// one router's policy and re-verifying through internal/delta solves
// strictly fewer checks than the cold full run.
func TestIncrementalProofOnWAN(t *testing.T) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	v := delta.NewVerifier(eng, wanSuite(t), netgen.SuiteParams{Regions: testWANParams.Regions})

	base, err := v.Baseline(netgen.WAN(testWANParams, netgen.WANBugs{}))
	if err != nil {
		t.Fatal(err)
	}
	if !base.OK {
		t.Fatalf("baseline must verify: %s", base)
	}
	if base.ReusedResults != 0 || base.DirtyChecks != base.TotalChecks {
		t.Fatalf("baseline should be fully dirty: %s", base)
	}
	if base.Solved == 0 {
		t.Fatalf("baseline solved nothing: %s", base)
	}

	// One router's policy changes: tighten the peer imports at the edge
	// router.
	mutated := netgen.WAN(testWANParams, netgen.WANBugs{})
	if n := netgen.TightenPeerImports(mutated, netgen.EdgeRouter(0)); n == 0 {
		t.Fatal("mutation changed nothing")
	}
	res, err := v.Update(mutated)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("tightened network must still verify: %s", res)
	}
	if res.Solved >= base.Solved {
		t.Fatalf("incremental run must solve strictly fewer checks: baseline %d, update %d", base.Solved, res.Solved)
	}
	if res.ReusedResults == 0 || res.DirtyChecks == 0 || res.DirtyChecks >= res.TotalChecks {
		t.Fatalf("update should mix reuse and dirty work: %s", res)
	}
	if res.Diff == nil || res.Diff.Empty() {
		t.Fatalf("update must report the structural diff: %s", res)
	}
	if len(res.ChangedRouters) != 1 || res.ChangedRouters[0] != netgen.EdgeRouter(0) {
		t.Fatalf("changed routers = %v, want [%s]", res.ChangedRouters, netgen.EdgeRouter(0))
	}
}

func TestUpdateNoChangeReusesEverything(t *testing.T) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	v := delta.NewVerifier(eng, wanSuite(t), netgen.SuiteParams{Regions: testWANParams.Regions})
	if _, err := v.Baseline(netgen.WAN(testWANParams, netgen.WANBugs{})); err != nil {
		t.Fatal(err)
	}
	res, err := v.Update(netgen.WAN(testWANParams, netgen.WANBugs{}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diff.Empty() {
		t.Fatalf("regenerated network should diff empty, got %s", res.Diff)
	}
	if res.DirtyChecks != 0 || res.Solved != 0 || res.ReusedResults != res.TotalChecks {
		t.Fatalf("no-op update should reuse everything: %s", res)
	}
	if !res.OK {
		t.Fatalf("no-op update must verify: %s", res)
	}
}

func TestUpdateDetectsIntroducedBug(t *testing.T) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	v := delta.NewVerifier(eng, wanSuite(t), netgen.SuiteParams{Regions: testWANParams.Regions})
	if _, err := v.Baseline(netgen.WAN(testWANParams, netgen.WANBugs{})); err != nil {
		t.Fatal(err)
	}
	res, err := v.Update(netgen.WAN(testWANParams, netgen.WANBugs{MissingBogonFilter: true}))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("dropping the bogon filter must fail incremental re-verification")
	}
	// The failure must localize to a problem at the mutated session.
	found := false
	for _, p := range res.Problems {
		if p.Report == nil || p.Report.OK() {
			continue
		}
		for _, f := range p.Report.Failures() {
			if f.Loc.String() == "peer-e0-0 -> edge-0" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("failure should localize at the session whose filter regressed")
	}
}

func TestUpdateBeforeBaselineFails(t *testing.T) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	v := delta.NewVerifier(eng, wanSuite(t), netgen.SuiteParams{})
	if _, err := v.Update(netgen.WAN(testWANParams, netgen.WANBugs{})); err == nil {
		t.Fatal("Update before Baseline must error")
	}
}

// TestWarmStartAcrossRestart proves the store side of the tentpole: an
// engine backed by an internal/store cache serves a "restarted process"
// (fresh engine + fresh verifier on a reopened store) without re-solving.
func TestWarmStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	net := func() *topology.Network { return netgen.WAN(testWANParams, netgen.WANBugs{}) }

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Cache: st})
	v := delta.NewVerifier(eng, wanSuite(t), netgen.SuiteParams{Regions: testWANParams.Regions})
	cold, err := v.Baseline(net())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Solved == 0 {
		t.Fatalf("cold run solved nothing: %s", cold)
	}
	eng.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: new store handle, new engine, new verifier (no retained
	// in-memory results), same network.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() == 0 {
		t.Fatal("journal empty after cold run")
	}
	eng2 := engine.New(engine.Options{Cache: st2})
	defer eng2.Close()
	v2 := delta.NewVerifier(eng2, wanSuite(t), netgen.SuiteParams{Regions: testWANParams.Regions})
	warm, err := v2.Baseline(net())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.OK {
		t.Fatalf("warm run must verify: %s", warm)
	}
	if warm.Solved != 0 {
		t.Fatalf("warm run should be served entirely from the store, solved %d", warm.Solved)
	}
	if hits := eng2.Stats().CacheHits; hits == 0 {
		t.Fatal("warm run reported no cache hits")
	}
	if st2.Stats().Hits == 0 {
		t.Fatal("store reported no hits on the warm run")
	}
}

// TestDirtyConsistent exercises the core.PartitionChecks diff hook: the
// key-based dirty set must sit inside the diff's touched region.
func TestDirtyConsistent(t *testing.T) {
	old := netgen.Fig1(netgen.Fig1Options{})
	new := netgen.Fig1(netgen.Fig1Options{OmitTransitTag: true})
	d := topology.DiffNetworks(old, new)
	if d.Empty() {
		t.Fatal("fig1 bug variant should differ")
	}

	oldKeys := make(map[string]bool)
	for _, c := range netgen.Fig1NoTransitProblem(old).Checks(core.Options{}) {
		oldKeys[c.Key()] = true
	}
	var dirty []core.Check
	for _, c := range netgen.Fig1NoTransitProblem(new).Checks(core.Options{}) {
		if !oldKeys[c.Key()] {
			dirty = append(dirty, c)
		}
	}
	if len(dirty) == 0 {
		t.Fatal("policy change should dirty at least one check")
	}
	if err := delta.DirtyConsistent(d, dirty); err != nil {
		t.Fatalf("key-dirty checks must sit at diff-touched locations: %v", err)
	}

	// Negative: claim a check at an untouched location is dirty.
	var clean []core.Check
	for _, c := range netgen.Fig1NoTransitProblem(new).Checks(core.Options{}) {
		if oldKeys[c.Key()] && c.Loc.IsEdge() && !d.Touches(c.Loc.Edge()) {
			clean = append(clean, c)
		}
	}
	if len(clean) == 0 {
		t.Fatal("expected clean checks at untouched locations")
	}
	if err := delta.DirtyConsistent(d, clean); err == nil {
		t.Fatal("DirtyConsistent should reject checks at untouched locations")
	}
}

// TestVerifierRunsUnderWorkloadTenant: the workload template's tenant is
// charged for every run, and an over-quota incremental run is rejected as
// one unit with the engine's typed admission error.
func TestVerifierRunsUnderWorkloadTenant(t *testing.T) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	v := delta.NewVerifier(eng, wanSuite(t), netgen.SuiteParams{Regions: testWANParams.Regions})
	v.SetWorkload(engine.Workload{Tenant: "netops"})
	if v.Tenant() != "netops" {
		t.Fatalf("Tenant() = %q", v.Tenant())
	}
	if _, err := v.Baseline(netgen.WAN(testWANParams, netgen.WANBugs{})); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Tenants["netops"].Admitted != 1 || st.Tenants["netops"].InFlightCost != 0 {
		t.Fatalf("tenant accounting after baseline: %+v", st.Tenants["netops"])
	}

	// A budget smaller than the cold baseline rejects the whole run.
	eng2 := engine.New(engine.Options{Admission: engine.Admission{PerTenantQuota: 1}})
	defer eng2.Close()
	v2 := delta.NewVerifier(eng2, wanSuite(t), netgen.SuiteParams{Regions: testWANParams.Regions})
	v2.SetWorkload(engine.Workload{Tenant: "netops"})
	_, err := v2.Baseline(netgen.WAN(testWANParams, netgen.WANBugs{}))
	var adm *engine.ErrAdmission
	if !errors.As(err, &adm) || adm.Tenant != "netops" {
		t.Fatalf("over-quota baseline: err=%v, want ErrAdmission for netops", err)
	}
	if st := eng2.Stats(); st.ChecksSubmitted != 0 {
		t.Fatalf("rejected run submitted %d checks", st.ChecksSubmitted)
	}
}

// TestRunsAfterEngineClosed: a baseline under a grant taken before the
// engine closed records engine.ErrClosed as every problem's failure, and
// an update, which reserves its own grant, returns it.
func TestRunsAfterEngineClosed(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	resv, err := eng.Reserve("", 100)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	v := delta.NewVerifier(eng, wanSuite(t), netgen.SuiteParams{Regions: testWANParams.Regions})
	v.SetReservation(resv)
	n := netgen.WAN(testWANParams, netgen.WANBugs{})
	res, err := v.Baseline(n)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Failures != len(res.Problems) || len(res.Problems) == 0 {
		t.Fatalf("baseline on a closed engine: ok=%v, %d failures over %d problems", res.OK, res.Failures, len(res.Problems))
	}
	for _, p := range res.Problems {
		if !p.Failed || p.SkipReason != engine.ErrClosed.Error() {
			t.Fatalf("%s: failed=%v, reason %q", p.Name, p.Failed, p.SkipReason)
		}
	}
	v.SetReservation(nil)
	if _, err := v.Update(netgen.WAN(testWANParams, netgen.WANBugs{MissingBogonFilter: true})); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("update on a closed engine: %v, want ErrClosed", err)
	}
}
