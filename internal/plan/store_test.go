package plan

import (
	"fmt"
	"reflect"
	"testing"

	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/store"
)

// execute compiles req and runs it on a fresh engine with the given worker
// count (0 = GOMAXPROCS) and, when dir is set, the persistent store in dir
// behind its cache — the engine the CLI builds from its flags.
func execute(t *testing.T, req Request, dir string, workers int) *Result {
	t.Helper()
	c, err := Compile(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{Workers: workers}
	var st *store.Store
	if dir != "" {
		if st, err = store.Open(dir); err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		opts.Cache = st
	}
	eng := engine.New(opts)
	defer eng.Close()
	res, err := Run(eng, c, RunConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// failureWitnesses renders every failing check of res twice: as the text
// the CLI prints (the report summary's FAIL line and its witness) and as
// the -json entry without timings.
func failureWitnesses(res *Result) (text []string, js []engine.CheckResultJSON) {
	for _, pr := range res.Properties {
		for _, p := range pr.Problems {
			if p.Report == nil {
				continue
			}
			for _, f := range p.Report.HardFailures() {
				text = append(text, fmt.Sprintf("%s: FAIL [%s] at %s: %s\n%s", p.Name, f.Kind, f.Loc, f.Desc, f.Counterexample))
			}
			for _, c := range p.EncodeReport().Checks {
				if c.Status == "fail" {
					c.SolveNanos, c.TotalNanos = 0, 0
					js = append(js, c)
				}
			}
		}
	}
	return text, js
}

// TestStoreServedFailuresMatchSolved: a failure on a warm store prints the
// same witness, in text and in -json, as a run without a store. The store
// journals only verdicts that hold, so every failure is solved (or shared
// in flight) and carries a structured, replayable counterexample.
func TestStoreServedFailuresMatchSolved(t *testing.T) {
	wan := netgen.WANParams{Regions: 2, RoutersPerRegion: 2, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 2}
	req := Request{
		Network:    Network{Config: netgen.WANDSL(wan, netgen.WANBugs{MissingBogonFilter: true})},
		Properties: []Property{{Name: "wan-peering"}},
		Options:    Options{WANRegions: 2},
	}
	refText, refJSON := failureWitnesses(execute(t, req, "", 0))
	if len(refText) == 0 {
		t.Fatal("the missing-bogon WAN verified")
	}
	for _, c := range refJSON {
		if c.Counterexample == nil || c.Counterexample.Input == "" {
			t.Fatalf("solved failure without a structured witness: %+v", c)
		}
	}

	dir := t.TempDir()
	cold := execute(t, req, dir, 0)
	warm := execute(t, req, dir, 0)
	if warm.Store == nil || warm.Store.Loaded == 0 || warm.Store.Hits == 0 {
		t.Fatalf("warm run was not served from the store: %+v", warm.Store)
	}
	if cold.Store.Puts != warm.Store.Loaded || warm.Store.Puts != 0 {
		t.Fatalf("store: cold %+v, warm %+v; want the warm run to load what the cold one recorded and record nothing", cold.Store, warm.Store)
	}
	for name, res := range map[string]*Result{"cold": cold, "warm": warm} {
		text, js := failureWitnesses(res)
		if !reflect.DeepEqual(text, refText) {
			t.Errorf("%s store run prints\n%q\nwithout a store\n%q", name, text, refText)
		}
		if !reflect.DeepEqual(js, refJSON) {
			t.Errorf("%s store run's -json failures\n%+v\nwithout a store\n%+v", name, js, refJSON)
		}
	}
}

// TestStoreWarmRestart is the store round trip a CLI user sees: a cold run
// records verdicts, and a rerun in a new engine (a process restart) loads
// and reuses them. lightyear's TestDiffReusesStore takes the same store on
// into a -diff run.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	req := Request{
		Network:    Network{Generator: &netgen.GeneratorSpec{Kind: "wan", Regions: 2, RoutersPerRegion: 1, EdgeRouters: 1, PeersPerEdge: 2}},
		Properties: []Property{{Name: "wan-peering"}},
		Options:    Options{WANRegions: 2},
	}

	cold := execute(t, req, dir, 0)
	if !cold.OK || cold.Store == nil || cold.Store.Loaded != 0 || cold.Store.Puts == 0 {
		t.Fatalf("cold run: ok=%v store %+v; want 0 loaded and some recorded", cold.OK, cold.Store)
	}
	warm := execute(t, req, dir, 0)
	if !warm.OK || warm.Store.Loaded == 0 || warm.Store.Hits == 0 {
		t.Fatalf("warm run: ok=%v store %+v; want results loaded and reused", warm.OK, warm.Store)
	}
}

// TestStoreSolvesEachFailingKeyOnce: the store journals only verdicts that
// hold, and the engine's in-memory tier sits in front of it, so a run on a
// warm store solves each failing key once, however many checks pose it.
// The 2-region missing-bogon WAN fails several checks that share one key;
// one worker solves them in turn, so in-flight dedup cannot hide a re-solve.
func TestStoreSolvesEachFailingKeyOnce(t *testing.T) {
	wan := netgen.WANParams{Regions: 2, RoutersPerRegion: 2, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 2}
	req := Request{
		Network:    Network{Config: netgen.WANDSL(wan, netgen.WANBugs{MissingBogonFilter: true})},
		Properties: []Property{{Name: "wan-peering"}},
		Options:    Options{WANRegions: 2},
	}
	dir := t.TempDir()
	execute(t, req, dir, 1) // warms the store
	warm := execute(t, req, dir, 1)
	if warm.Store.Loaded == 0 || warm.Store.Puts != 0 {
		t.Fatalf("store %+v; want a warm run that records nothing", warm.Store)
	}
	if warm.Failures < 2 || warm.Engine.ChecksSolved != 1 {
		t.Fatalf("%d failures, %d solved; want the one failing key solved once", warm.Failures, warm.Engine.ChecksSolved)
	}
}
