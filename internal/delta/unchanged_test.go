package delta_test

import (
	"strings"
	"testing"

	"lightyear/internal/config"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
)

// fig1Cfg is netgen.Fig1 in configuration-language form (the same DSL
// internal/config's parser tests use), so the session below is driven the
// way an operator drives one: by editing source text.
const fig1Cfg = `
# Figure 1 example network
node R1 { as 65000 role edge }
node R2 { as 65000 role edge }
node R3 { as 65000 role edge }
external ISP1 { as 174 }
external ISP2 { as 3356 }
external Customer { as 64512 }

peering ISP1 R1
peering ISP2 R2
peering Customer R3
peering R1 R2
peering R1 R3
peering R2 R3

prefix-list cust { 10.42.0.0/16 ge 16 le 24 }

route-map r1-import-isp1 {
  term 10 deny { match prefix-list cust }
  term 20 permit { set community add 100:1 }
}
route-map r2-import-isp2 {
  term 10 deny { match prefix-list cust }
  term 20 permit { }
}
route-map r2-export-isp2 {
  term 10 deny { match community 100:1 }
  term 20 permit { }
}
route-map r3-import-customer {
  term 10 permit {
    match prefix-list cust
    set community none
  }
}

import ISP1 -> R1 map r1-import-isp1
import ISP2 -> R2 map r2-import-isp2
export R2 -> ISP2 map r2-export-isp2
import Customer -> R3 map r3-import-customer

originate R1 -> R2 route 10.50.0.0/16 lp 100
originate R1 -> R3 route 10.50.0.0/16 lp 100
originate R1 -> ISP1 route 10.50.0.0/16 lp 100
`

// TestCommentOnlyEditIsNoOp is the regression test for the carried open
// item "a comment-only config edit still fingerprints as a change": an
// update whose source differs only in comments and whitespace must take
// the unchanged fast path — no dirty checks, no solver work, verdicts
// republished — while a real policy edit on the same session still
// dirties.
func TestCommentOnlyEditIsNoOp(t *testing.T) {
	suite, ok := netgen.Lookup("fig1-no-transit")
	if !ok {
		t.Fatal("fig1-no-transit suite not registered")
	}
	eng := engine.New(engine.Options{})
	defer eng.Close()
	v := delta.NewVerifier(eng, suite, netgen.SuiteParams{})

	base, err := v.Baseline(config.MustParse(fig1Cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !base.OK || base.Solved == 0 {
		t.Fatalf("baseline: %s", base)
	}

	edited := "# audit note\n" + strings.ReplaceAll(fig1Cfg, "peering R1 R2", "peering   R1 R2   # reviewed") + "\n# trailing\n"
	res, err := v.Update(config.MustParse(edited))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unchanged {
		t.Fatalf("comment-only edit not recognized as unchanged: %s", res)
	}
	if res.DirtyChecks != 0 || res.Solved != 0 {
		t.Fatalf("comment-only edit dirtied the session: %s", res)
	}
	if !res.OK || res.TotalChecks != base.TotalChecks || res.ReusedResults != base.TotalChecks {
		t.Fatalf("republished verdicts inconsistent with baseline: %s vs %s", res, base)
	}
	if res.Fingerprint != base.Fingerprint {
		t.Fatal("fingerprint changed across a comment-only edit")
	}
	if len(res.Problems) != len(base.Problems) || res.Problems[0].Report == nil {
		t.Fatalf("fast path dropped the per-problem reports: %+v", res.Problems)
	}

	// The same session still reacts to a real edit: dropping the community
	// tag R2's export filter matches is the paper's §2.1 bug.
	buggy := strings.Replace(fig1Cfg, "set community add 100:1", "", 1)
	res2, err := v.Update(config.MustParse(buggy))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Unchanged {
		t.Fatalf("semantic edit took the unchanged fast path: %s", res2)
	}
	if res2.DirtyChecks == 0 {
		t.Fatalf("semantic edit dirtied nothing: %s", res2)
	}
	if res2.OK {
		t.Fatalf("planted bug went undetected: %s", res2)
	}
}

// TestCommentOnlyEditOfFailingFailuresOnlySession pins the failures-only
// path (the default of every plan surface) on Figure 1 with the §2.1 bug:
// a comment- and whitespace-only edit goes through the one update path,
// which folds every passing edge from the frame index and regenerates the
// failing edges and the implication check, so it must report the same
// failures, word for word, without solving anything.
func TestCommentOnlyEditOfFailingFailuresOnlySession(t *testing.T) {
	suite, ok := netgen.Lookup("fig1-no-transit")
	if !ok {
		t.Fatal("fig1-no-transit suite not registered")
	}
	eng := engine.New(engine.Options{})
	defer eng.Close()
	v := delta.NewVerifier(eng, suite, netgen.SuiteParams{})
	v.SetWorkload(engine.Workload{SubmitOptions: engine.SubmitOptions{Results: engine.ResultsFailures}})

	buggy := strings.Replace(fig1Cfg, "set community add 100:1", "", 1)
	base, err := v.Baseline(config.MustParse(buggy))
	if err != nil {
		t.Fatal(err)
	}
	if base.OK || base.Failures == 0 {
		t.Fatalf("baseline of the buggy network holds: %s", base)
	}

	edited := "# audit note\n" + strings.ReplaceAll(buggy, "peering R1 R2", "peering   R1 R2   # reviewed") + "\n# trailing\n"
	res, err := v.Update(config.MustParse(edited))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unchanged || res.DirtyChecks != 0 || res.Solved != 0 {
		t.Fatalf("comment-only edit was not a no-op: unchanged=%v %s", res.Unchanged, res)
	}
	if res.OK || res.Failures != base.Failures || res.TotalChecks != base.TotalChecks || res.ReusedResults != base.TotalChecks {
		t.Fatalf("update %s (failures %d) differs from baseline %s (failures %d)", res, res.Failures, base, base.Failures)
	}
	if got, want := failingDescs(t, res), failingDescs(t, base); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("failing checks differ:\nupdate:\n%s\nbaseline:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// failingDescs lists each problem's failing checks as "problem: desc".
func failingDescs(t *testing.T, res *delta.Result) []string {
	t.Helper()
	var out []string
	for _, p := range res.Problems {
		if p.Report == nil {
			t.Fatalf("%s has no report", p.Name)
		}
		for _, f := range p.Report.Failures() {
			out = append(out, p.Name+": "+f.Desc.String())
		}
	}
	if len(out) == 0 {
		t.Fatal("no failing checks")
	}
	return out
}
