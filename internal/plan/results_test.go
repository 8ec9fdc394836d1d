package plan

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/policy"
	"lightyear/internal/topology"
)

// failingInputs are plans with known violations: the missing-bogon WAN and
// planted-bug corpus members.
func failingInputs(t *testing.T) map[string]Request {
	t.Helper()
	wan := netgen.WANParams{Regions: 2, RoutersPerRegion: 2, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 2}
	out := map[string]Request{
		"wan missing-bogon": {
			Network:    Network{Config: netgen.WANDSL(wan, netgen.WANBugs{MissingBogonFilter: true})},
			Properties: []Property{{Name: "wan-peering"}},
			Options:    Options{WANRegions: 2},
		},
	}
	for _, ref := range []string{"ring:1:size=5,bug=no-class-e", "waxman:7:size=8,bug=max-prefix-length", "fattree:2:k=4,bug=no-bogons"} {
		out[ref] = Request{Network: Network{Corpus: ref}, Properties: []Property{{Name: "wan-peering"}}}
	}
	return out
}

// runMode compiles req under a results mode and runs it on eng.
func runMode(t *testing.T, eng *engine.Engine, req Request, mode engine.ResultsMode) (*Compiled, *Result) {
	t.Helper()
	req.Options.Results = mode
	c, err := Compile(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(eng, c, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

// TestResultsModesAgree: results=failures and results=all give the same
// verdicts, the same counts, maxima and summed times, and the same failing
// entries — witness included. Both runs share one engine, the second served
// from its cache, so per-check times are the same numbers in both.
func TestResultsModesAgree(t *testing.T) {
	for name, req := range failingInputs(t) {
		t.Run(name, func(t *testing.T) {
			eng := engine.New(engine.Options{Workers: 2})
			defer eng.Close()
			_, all := runMode(t, eng, req, engine.ResultsAll)
			_, failures := runMode(t, eng, req, "") // the plan default
			if all.OK || failures.OK || all.Failures == 0 || all.Failures != failures.Failures || all.Unknowns != failures.Unknowns {
				t.Fatalf("verdicts: all ok=%v failures=%d, failures-only ok=%v failures=%d",
					all.OK, all.Failures, failures.OK, failures.Failures)
			}
			kept, counted := 0, 0
			for pi := range all.Properties {
				for i := range all.Properties[pi].Problems {
					a, f := all.Properties[pi].Problems[i].EncodeReport(), failures.Properties[pi].Problems[i].EncodeReport()
					if len(a.Checks) != a.NumChecks {
						t.Fatalf("%s: results=all kept %d of %d checks", a.Property, len(a.Checks), a.NumChecks)
					}
					var failing []engine.CheckResultJSON
					for _, c := range a.Checks {
						if !c.OK {
							failing = append(failing, c)
						}
					}
					if !reflect.DeepEqual(failing, f.Checks) && (len(failing) > 0 || len(f.Checks) > 0) {
						t.Fatalf("%s: failing entries differ:\n all      %+v\n failures %+v", a.Property, failing, f.Checks)
					}
					kept += len(f.Checks)
					counted += f.NumChecks
					a.Checks, f.Checks, a.TotalNanos, f.TotalNanos = nil, nil, 0, 0 // job wall time is per run
					if !reflect.DeepEqual(a, f) {
						t.Fatalf("%s: summaries differ:\n all      %+v\n failures %+v", a.Property, a, f)
					}
				}
			}
			if kept != all.Failures || kept >= counted {
				t.Fatalf("failures-only reports keep %d entries for %d failures of %d checks", kept, all.Failures, counted)
			}
		})
	}
}

// TestEveryFailWitnessReplays: the counterexample of every failing check, put
// back through the check's own route map and ghost updates concretely, does
// what the verdict says — satisfies the pre-condition and violates the
// post-condition (or is rejected where acceptance was required).
func TestEveryFailWitnessReplays(t *testing.T) {
	for name, req := range failingInputs(t) {
		t.Run(name, func(t *testing.T) {
			eng := engine.New(engine.Options{Workers: 2})
			defer eng.Close()
			req.Options.Results = engine.ResultsFailures
			c, err := Compile(req, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Obligations by rendered identity, before Run releases them.
			obs := map[string]*core.Obligation{}
			for pi, u := range c.Units {
				for i, p := range u.Problems {
					for _, ck := range c.Prepared()[pi][i].Checks {
						obs[fmt.Sprintf("%s|%s|%s|%s", p.Name, ck.Kind, ck.Loc, ck.Desc)] = ck.Obligation()
					}
				}
			}
			res, err := Run(eng, c, RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			replayed := 0
			for _, pr := range res.Properties {
				for _, p := range pr.Problems {
					for _, f := range p.Report.HardFailures() {
						ob := obs[fmt.Sprintf("%s|%s|%s|%s", p.Name, f.Kind, f.Loc, f.Desc)]
						if ob == nil || f.Counterexample == nil || f.Counterexample.Input == nil {
							t.Fatalf("%s: failing check %q has no obligation or no witness", p.Name, f.Desc)
						}
						replay(t, ob, f.Counterexample)
						replayed++
					}
				}
			}
			if replayed == 0 {
				t.Fatal("no failing check to replay")
			}
		})
	}
}

func replay(t *testing.T, ob *core.Obligation, ce *core.Counterexample) {
	t.Helper()
	pre, post := ob.Predicates()
	switch {
	case ob.Concrete():
		if post.Eval(ce.Input) {
			t.Fatalf("%s: originated witness satisfies the invariant", ob.Desc)
		}
	case ob.RouteMap() == nil && ob.GhostActions() == nil && ob.Kind == core.ImplicationCheck:
		if !pre.Eval(ce.Input) || post.Eval(ce.Input) {
			t.Fatalf("%s: implication witness does not separate the two sides", ob.Desc)
		}
	default:
		if !pre.Eval(ce.Input) {
			t.Fatalf("%s: witness %s violates the pre-condition", ob.Desc, ce.Input)
		}
		out, accepted := ob.RouteMap().Apply(ce.Input)
		if accepted {
			for _, a := range ob.GhostActions() {
				a.Apply(out)
			}
		}
		violated := accepted && !post.Eval(out)
		if ob.MustAccept() {
			violated = !accepted || !post.Eval(out)
		}
		if !violated {
			t.Fatalf("%s: witness %s replays without violating the post-condition (accepted=%v, out=%v)",
				ob.Desc, ce.Input, accepted, out)
		}
	}
}

// TestRetainedResultsDoNotPinThePlan: once a run is over and its compiled
// plan dropped, the plan, its network and the route maps its obligations
// point at are all unreachable — while the results the run produced are
// still in the engine's cache and the caller still holds the run's wire-form
// report. A cached or retained result that kept its obligation (through a
// lazily rendered description, say) would keep the route maps alive.
func TestRetainedResultsDoNotPinThePlan(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	var collected atomic.Int32
	tracked := int32(0)
	run := func() []byte {
		c, res := runMode(t, eng, failingInputs(t)["ring:1:size=5,bug=no-class-e"], "")
		if res.OK {
			t.Fatal("planted bug not detected")
		}
		runtime.SetFinalizer(c, func(*Compiled) { collected.Add(1) })
		runtime.SetFinalizer(c.Network, func(*topology.Network) { collected.Add(1) })
		tracked = 2
		for _, e := range c.Network.Edges() {
			if m := c.Network.Import(e); m != nil {
				runtime.SetFinalizer(m, func(*policy.RouteMap) { collected.Add(1) })
				tracked++
			}
		}
		doc, err := json.Marshal(res) // what a host retains: rendered text only
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	doc := run()
	for i := 0; i < 20 && collected.Load() < tracked; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if st := eng.Stats(); st.CacheLen == 0 || len(doc) == 0 {
		t.Fatalf("nothing was retained to pin anything: cache %d, report %d bytes", st.CacheLen, len(doc))
	}
	if got := collected.Load(); got < tracked {
		t.Fatalf("%d of the run's %d tracked objects (plan, network, route maps) are still reachable: a cached or retained result points back into them", tracked-got, tracked)
	}
}
