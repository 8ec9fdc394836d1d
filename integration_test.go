// Integration matrix: every Figure-1 variant (correct + four planted bugs)
// run through three pipelines — Lightyear, the monolithic baseline, and the
// BGP simulator — asserting all agree on whether the no-transit property
// holds.
package lightyear_test

import (
	"math/rand"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/minesweeper"
	"lightyear/internal/netgen"
	"lightyear/internal/routemodel"
	"lightyear/internal/sim"
	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

func TestFig1VerdictMatrix(t *testing.T) {
	variants := []struct {
		name string
		opts netgen.Fig1Options
		want bool // does no-transit hold?
	}{
		{"correct", netgen.Fig1Options{}, true},
		{"omit-tag", netgen.Fig1Options{OmitTransitTag: true}, false},
		{"strip-at-r2", netgen.Fig1Options{StripAtR2: true}, false},
		{"skip-export-filter", netgen.Fig1Options{SkipExportFilter: true}, false},
		// forget-strip only breaks liveness, not the no-transit safety.
		{"forget-strip", netgen.Fig1Options{ForgetStripAtR3: true}, true},
	}
	exit := topology.Edge{From: "R2", To: "ISP2"}
	pred := spec.Not(spec.Ghost("FromISP1"))

	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			// Pipeline 1: Lightyear.
			n := netgen.Fig1(v.opts)
			ly := core.VerifySafety(netgen.Fig1NoTransitProblem(n), core.Options{})
			if ly.OK() != v.want {
				t.Errorf("lightyear: got %v, want %v", ly.OK(), v.want)
			}

			// Pipeline 2: monolithic baseline.
			ms := minesweeper.Verify(n, core.AtEdge(exit), pred,
				[]core.GhostDef{netgen.FromISP1Ghost(n)}, minesweeper.Options{})
			if ms.Unknown {
				t.Fatal("minesweeper unknown")
			}
			if ms.Holds != v.want {
				t.Errorf("minesweeper: got %v, want %v", ms.Holds, v.want)
			}

			// Pipeline 3: simulation. When the property holds, no trace may
			// violate it; when it fails, some adversarial trace must
			// exhibit the violation.
			violated := false
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 8; trial++ {
				s := sim.New(n, []core.GhostDef{netgen.FromISP1Ghost(n)})
				s.Seed(int64(trial))
				for _, e := range s.ExternalAnnounceEdges() {
					r := routemodel.NewRoute(routemodel.MustPrefix("8.8.0.0/16"))
					r.ASPath = []uint32{uint32(100 + rng.Intn(900))}
					if rng.Intn(2) == 0 {
						r.AddCommunity(netgen.CommTransit)
					}
					s.Announce(e, r)
					c := routemodel.NewRoute(routemodel.MustPrefix("10.42.1.0/24"))
					c.ASPath = []uint32{64512}
					s.Announce(e, c)
				}
				tr := s.Run(20000)
				if tr.CheckSafety(core.AtEdge(exit), pred) != nil {
					violated = true
				}
			}
			if v.want && violated {
				t.Error("simulation violated a verified property")
			}
			if !v.want && !violated {
				t.Error("simulation never exhibited the statically detected bug")
			}
		})
	}
}

// TestLivenessVerdictMatrix mirrors the safety matrix for the Table-3
// liveness property.
func TestLivenessVerdictMatrix(t *testing.T) {
	variants := []struct {
		name string
		opts netgen.Fig1Options
		want bool
	}{
		{"correct", netgen.Fig1Options{}, true},
		{"forget-strip", netgen.Fig1Options{ForgetStripAtR3: true}, false},
		{"skip-export-filter", netgen.Fig1Options{SkipExportFilter: true}, true},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			n := netgen.Fig1(v.opts)
			rep, err := core.VerifyLiveness(netgen.Fig1LivenessProblem(n), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() != v.want {
				t.Errorf("liveness: got %v, want %v\n%s", rep.OK(), v.want, rep.Summary())
			}
		})
	}
}
