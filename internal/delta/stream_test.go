package delta_test

import (
	"testing"

	"lightyear/internal/config"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/telemetry"
	"lightyear/internal/topology"
)

// outstanding is a Hooks pair that tracks, per run, the checks submitted
// and not yet collected, and whether a problem began after another was
// done — the run was streamed.
type outstanding struct {
	runs []*runStream
}

type runStream struct {
	now, peak, largest int
	done, streamed     bool
}

func (o *outstanding) hooks() delta.Hooks {
	return delta.Hooks{
		Begin: func(i int, p *delta.ProblemOutcome) *telemetry.Span {
			if i == 0 {
				o.runs = append(o.runs, &runStream{})
			}
			r := o.runs[len(o.runs)-1]
			if !p.Skipped && !p.Failed {
				r.now += p.Dirty
				r.peak, r.largest = max(r.peak, r.now), max(r.largest, p.Dirty)
			}
			r.streamed = r.streamed || r.done
			return nil
		},
		Done: func(_ int, _ *delta.ProblemOutcome, st *engine.JobStats) {
			r := o.runs[len(o.runs)-1]
			if st != nil {
				r.now -= st.Checks
			}
			r.done = true
		},
	}
}

// TestBaselineStreamsLargePlan: a Verifier's baseline of the benchmark's
// 5-region WAN (404,118 checks, more than three batches) is streamed like a
// plan — no more than two batches plus the largest problem outstanding —
// and the restricted update that removes one bogon filter after it matches
// full enumeration.
func TestBaselineStreamsLargePlan(t *testing.T) {
	if testing.Short() {
		t.Skip("404,118-check baseline")
	}
	p := netgen.WANParams{Regions: 5, RoutersPerRegion: 4, EdgeRouters: 6, DCsPerRegion: 1, PeersPerEdge: 6}
	var states []*topology.Network
	for _, bugs := range []netgen.WANBugs{{}, {MissingBogonFilter: true}} {
		n, err := config.Parse(netgen.WANDSL(p, bugs))
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, n)
	}
	tw := newTwins(t, suiteSource(t, "wan-peering", netgen.SuiteParams{Regions: p.Regions}))
	var o outstanding
	tw.restricted.SetHooks(o.hooks())
	served, results := tw.run(t, "wan5", states)

	base := results[0]
	if base.TotalChecks != 404118 || base.DirtyChecks != base.TotalChecks || !base.OK {
		t.Fatalf("baseline: %d/%d checks dirty, ok=%v; want 404,118 of 404,118, ok", base.DirtyChecks, base.TotalChecks, base.OK)
	}
	b := o.runs[0]
	if !b.streamed {
		t.Fatal("every problem began before the first was done: the baseline was not streamed")
	}
	if bound := 2*delta.BatchChecks + b.largest; b.peak > bound {
		t.Fatalf("%d checks outstanding at peak, bound %d", b.peak, bound)
	}
	if upd := results[1]; served[0] == 0 || upd.OK || upd.DirtyChecks == 0 || upd.ReusedResults == 0 {
		t.Fatalf("missing-bogon update: %d problems served from the index, %d dirty, %d reused, ok=%v",
			served[0], upd.DirtyChecks, upd.ReusedResults, upd.OK)
	}
}
