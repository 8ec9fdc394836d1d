package plan

import (
	"errors"
	"strings"
	"testing"

	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/solver"
)

func stressRequest(spec *solver.Spec) Request {
	return Request{
		Network:    Network{Generator: &netgen.GeneratorSpec{Kind: "fig1"}},
		Properties: []Property{{Name: "sat-stress"}},
		Options:    Options{Solver: spec},
	}
}

// TestSolverSpecValidation: an unknown backend is a typed request error
// (HTTP 400 / CLI exit 2), and Validate names the real backends.
func TestSolverSpecValidation(t *testing.T) {
	err := stressRequest(&solver.Spec{Backend: "bogus"}).Validate()
	var reqErr *RequestError
	if err == nil || !errors.As(err, &reqErr) {
		t.Fatalf("unknown backend: err = %v, want RequestError", err)
	}
	if err := stressRequest(&solver.Spec{Backend: "portfolio"}).Validate(); err != nil {
		t.Fatalf("portfolio spec rejected: %v", err)
	}
	err = stressRequest(&solver.Spec{Backend: "tiered", Budget: -100}).Validate()
	if err == nil || !errors.As(err, &reqErr) {
		t.Fatalf("negative budget: err = %v, want RequestError", err)
	}
	// There is no remote backend: naming it is a request error that lists
	// exactly the in-process backends.
	err = stressRequest(&solver.Spec{Backend: "remote"}).Validate()
	if err == nil || !errors.As(err, &reqErr) {
		t.Fatalf("remote backend: err = %v, want RequestError", err)
	}
	if !strings.HasSuffix(err.Error(), "(have: native, portfolio, tiered)") {
		t.Fatalf("remote backend: error %q does not name exactly native, portfolio and tiered", err)
	}
}

// TestSolverBackendSelectionRuns: the request's solver spec routes every job
// of the plan to the selected backend and the per-property stats say so.
func TestSolverBackendSelectionRuns(t *testing.T) {
	res := execute(t, stressRequest(&solver.Spec{Backend: "portfolio"}), "", 0)
	if !res.OK || res.Unknowns != 0 {
		t.Fatalf("portfolio stress run: ok=%v unknowns=%d", res.OK, res.Unknowns)
	}
	st := res.Properties[0].Stats
	if st.Backend != "portfolio" || st.Raced == 0 {
		t.Fatalf("per-property backend stats: %+v", st)
	}
	if res.Engine.Backends["portfolio"].Solved == 0 {
		t.Fatalf("engine backend counters: %+v", res.Engine.Backends)
	}
}

// TestUnknownPropagation: a 1-conflict native budget leaves the stress
// obligations undecided; Unknown must flow through the result, the
// per-check JSON encoding, and the check-event stream — distinct from Fail
// at every layer.
func TestUnknownPropagation(t *testing.T) {
	req := stressRequest(&solver.Spec{Backend: "native", Budget: 1})
	c, err := Compile(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Workers: 2})
	defer eng.Close()
	var unknownEvents int
	res, err := Run(eng, c, RunConfig{Sink: func(ev Event) {
		if ev.Type == "check" && ev.Status == "unknown" {
			unknownEvents++
			if ev.OK == nil || *ev.OK {
				t.Errorf("unknown check event claims ok: %+v", ev)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Unknowns == 0 || res.Failures != 0 {
		t.Fatalf("budgeted run: ok=%v unknowns=%d failures=%d (want !ok, >0, 0)",
			res.OK, res.Unknowns, res.Failures)
	}
	if unknownEvents == 0 {
		t.Fatal("no unknown check events streamed")
	}

	sawUnknown := false
	for _, pr := range res.Properties {
		for _, pb := range pr.Problems {
			enc := pb.EncodeReport()
			if enc == nil {
				t.Fatalf("problem %s has no report", pb.Name)
			}
			if enc.NumUnknown > 0 {
				sawUnknown = true
			}
			for _, ck := range enc.Checks {
				if ck.Status == "unknown" && ck.OK {
					t.Fatalf("encoded unknown check claims ok: %+v", ck)
				}
				if !ck.OK && ck.Status == "ok" {
					t.Fatalf("encoded check status disagrees with ok: %+v", ck)
				}
			}
		}
		if pr.Stats.Unknown == 0 {
			t.Fatalf("property stats did not count unknowns: %+v", pr.Stats)
		}
	}
	if !sawUnknown {
		t.Fatal("no report encoded num_unknown > 0")
	}
}
