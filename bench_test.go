// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (see DESIGN.md's experiment index and EXPERIMENTS.md for
// recorded results):
//
//	Table 2  -> BenchmarkTable2Fig1Safety
//	Table 3  -> BenchmarkTable3Fig1Liveness
//	Table 4a -> BenchmarkTable4aPeeringProperty
//	Table 4b -> BenchmarkTable4bIPReuseSafety
//	Table 4c -> BenchmarkTable4cIPReuseLiveness
//	Fig 3a/3c -> BenchmarkFig3MinesweeperVerify (vars/cons reported as metrics)
//	Fig 3b/3d -> BenchmarkFig3LightyearVerify (maxvars/maxcons as metrics)
//	§6.1 scaling -> BenchmarkWANPeeringSweep
//	Ablations -> BenchmarkParallelism, BenchmarkIncremental, BenchmarkSolverAblation
package lightyear_test

import (
	"fmt"
	"math/rand"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/minesweeper"
	"lightyear/internal/netgen"
	"lightyear/internal/policy"
	"lightyear/internal/smt/sat"
	"lightyear/internal/topology"
)

func BenchmarkTable2Fig1Safety(b *testing.B) {
	n := netgen.Fig1(netgen.Fig1Options{})
	p := netgen.Fig1NoTransitProblem(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.VerifySafety(p, core.Options{Workers: 1}).OK() {
			b.Fatal("must verify")
		}
	}
}

func BenchmarkTable3Fig1Liveness(b *testing.B) {
	n := netgen.Fig1(netgen.Fig1Options{})
	p := netgen.Fig1LivenessProblem(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.VerifyLiveness(p, core.Options{Workers: 1})
		if err != nil || !rep.OK() {
			b.Fatal("must verify")
		}
	}
}

func BenchmarkTable4aPeeringProperty(b *testing.B) {
	params := netgen.DefaultWANParams()
	n := netgen.WAN(params, netgen.WANBugs{})
	props := netgen.PeeringProperties(params.Regions)
	at := netgen.RegionRouter(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prop := props[i%len(props)]
		if !core.VerifySafety(netgen.PeeringProblem(n, at, prop), core.Options{Workers: 1}).OK() {
			b.Fatal("must verify")
		}
	}
}

func BenchmarkTable4bIPReuseSafety(b *testing.B) {
	params := netgen.DefaultWANParams()
	n := netgen.WAN(params, netgen.WANBugs{})
	p := netgen.IPReuseSafetyProblem(n, params, 0, netgen.RegionRouter(1, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.VerifySafety(p, core.Options{Workers: 1}).OK() {
			b.Fatal("must verify")
		}
	}
}

func BenchmarkTable4cIPReuseLiveness(b *testing.B) {
	params := netgen.DefaultWANParams()
	n := netgen.WAN(params, netgen.WANBugs{})
	p := netgen.IPReuseLivenessProblem(n, params, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.VerifyLiveness(p, core.Options{Workers: 1})
		if err != nil || !rep.OK() {
			b.Fatal("must verify")
		}
	}
}

// BenchmarkFig3LightyearVerify sweeps full-mesh sizes; the reported
// maxvars/maxcons metrics are the Figure-3b series (constant in N) and the
// wall time per op is the Figure-3d series (linear in edges).
func BenchmarkFig3LightyearVerify(b *testing.B) {
	for _, size := range []int{10, 20, 30, 40} {
		b.Run(fmt.Sprintf("N=%d", size), func(b *testing.B) {
			n := netgen.FullMesh(size)
			p := netgen.FullMeshProblem(n)
			var rep *core.Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep = core.VerifySafety(p, core.Options{})
				if !rep.OK() {
					b.Fatal("must verify")
				}
			}
			b.ReportMetric(float64(rep.MaxVars()), "maxvars")
			b.ReportMetric(float64(rep.MaxCons()), "maxcons")
			b.ReportMetric(float64(rep.NumChecks()), "checks")
		})
	}
}

// BenchmarkFig3MinesweeperVerify is the monolithic side: vars/cons are the
// Figure-3a series (quadratic in N) and wall time the Figure-3c series.
func BenchmarkFig3MinesweeperVerify(b *testing.B) {
	loc, pred := netgen.FullMeshProperty()
	for _, size := range []int{10, 20, 30} {
		b.Run(fmt.Sprintf("N=%d", size), func(b *testing.B) {
			n := netgen.FullMesh(size)
			ghosts := []core.GhostDef{netgen.FullMeshGhost(n)}
			var res minesweeper.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = minesweeper.Verify(n, loc, pred, ghosts, minesweeper.Options{})
				if !res.Holds {
					b.Fatal("must verify")
				}
			}
			b.ReportMetric(float64(res.NumVars), "vars")
			b.ReportMetric(float64(res.NumCons), "cons")
		})
	}
}

// BenchmarkWANPeeringSweep is the §6.1 workload: one property across all
// edge routers of a mid-size WAN.
func BenchmarkWANPeeringSweep(b *testing.B) {
	params := netgen.WANParams{Regions: 4, RoutersPerRegion: 3, EdgeRouters: 4, DCsPerRegion: 1, PeersPerEdge: 4}
	n := netgen.WAN(params, netgen.WANBugs{})
	prop := netgen.PeeringProperties(params.Regions)[0]
	edges := n.RoutersByRole("edge")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range edges {
			if !core.VerifySafety(netgen.PeeringProblem(n, r, prop), core.Options{Workers: 1}).OK() {
				b.Fatal("must verify")
			}
		}
	}
}

// BenchmarkParallelism is the check-execution ablation: identical problem,
// sequential vs parallel workers.
func BenchmarkParallelism(b *testing.B) {
	n := netgen.FullMesh(20)
	p := netgen.FullMeshProblem(n)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !core.VerifySafety(p, core.Options{Workers: workers}).OK() {
					b.Fatal("must verify")
				}
			}
		})
	}
}

// BenchmarkIncremental measures re-verification after a single-filter edit
// versus verification from scratch.
func BenchmarkIncremental(b *testing.B) {
	mk := func() (*topology.Network, *core.SafetyProblem) {
		n := netgen.FullMesh(15)
		return n, netgen.FullMeshProblem(n)
	}
	b.Run("from-scratch", func(b *testing.B) {
		_, p := mk()
		for i := 0; i < b.N; i++ {
			if !core.VerifySafety(p, core.Options{Workers: 1}).OK() {
				b.Fatal("must verify")
			}
		}
	})
	b.Run("incremental-one-edit", func(b *testing.B) {
		n, _ := mk()
		eng := engine.New(engine.Options{Workers: 1})
		defer eng.Close()
		suite, _ := netgen.Lookup("fullmesh")
		v := delta.NewVerifier(eng, suite, netgen.SuiteParams{})
		if _, err := v.Baseline(n); err != nil {
			b.Fatal(err)
		}
		e := topology.Edge{From: "R3", To: "R4"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternate between two equivalent maps so each iteration has
			// exactly one dirty check.
			next := n.Clone()
			next.SetImport(e, &policy.RouteMap{Name: fmt.Sprintf("v%d", i%2), DefaultPermit: true})
			res, err := v.Update(next)
			if err != nil || !res.OK {
				b.Fatal("must verify")
			}
		}
	})
}

// BenchmarkSolverAblation quantifies the CDCL heuristics on hard random
// 3-SAT at the phase-transition ratio (forces real search): full solver vs
// no-VSIDS vs no-restarts.
func BenchmarkSolverAblation(b *testing.B) {
	build := func(s *sat.Solver) {
		rng := rand.New(rand.NewSource(12345))
		const nv = 140
		vars := make([]int, nv)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		nc := int(float64(nv) * 4.4)
		for c := 0; c < nc; c++ {
			var lits [3]sat.Lit
			for k := 0; k < 3; k++ {
				lits[k] = sat.MkLit(vars[rng.Intn(nv)], rng.Intn(2) == 0)
			}
			s.AddClause(lits[:]...)
		}
	}
	run := func(b *testing.B, configure func(*sat.Solver)) {
		for i := 0; i < b.N; i++ {
			s := sat.New()
			configure(s)
			build(s)
			if s.Solve() == sat.Unknown {
				b.Fatal("unexpected unknown")
			}
		}
	}
	b.Run("full", func(b *testing.B) { run(b, func(*sat.Solver) {}) })
	b.Run("no-vsids", func(b *testing.B) { run(b, func(s *sat.Solver) { s.SetDisableVSIDS(true) }) })
	b.Run("no-restarts", func(b *testing.B) { run(b, func(s *sat.Solver) { s.SetDisableRestarts(true) }) })
}
