// Command lybench regenerates the tables and figures of the paper's
// evaluation (§6) on this implementation:
//
//	-experiment table1    feature-comparison matrix (Table 1)
//	-experiment table2    Figure-1 no-transit checks and verdicts (Table 2)
//	-experiment table3    Figure-1 liveness checks and verdicts (Table 3)
//	-experiment table4a   WAN peering properties, with bug localization (Table 4a)
//	-experiment table4b   WAN IP-reuse safety per region (Table 4b)
//	-experiment table4c   WAN IP-reuse liveness per region (Table 4c)
//	-experiment fig3      Lightyear vs Minesweeper scaling sweep (Figure 3a-d)
//	-experiment faults    differential simulation under random failures (§4.5)
//	-experiment all       everything above
//
// Each experiment prints its raw rows and verdicts. Performance is measured
// and graded by the repository benchmark (bench/), not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/minesweeper"
	"lightyear/internal/netgen"
	"lightyear/internal/routemodel"
	"lightyear/internal/sim"
	"lightyear/internal/topology"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run")
		sizes      = flag.String("sizes", "10,20,30,40", "fig3: comma-separated mesh sizes")
		msTimeout  = flag.Duration("ms-timeout", 2*time.Minute, "fig3: Minesweeper per-size timeout (paper used 2h)")
		workers    = flag.Int("workers", 0, "parallel check workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	// All experiments share one verification engine, so identical checks
	// re-issued across tables are solved once.
	eng := engine.New(engine.Options{Workers: *workers})
	defer eng.Close()

	switch *experiment {
	case "table1":
		table1()
	case "table2":
		table2(eng)
	case "table3":
		table3(eng)
	case "table4a":
		table4a(eng)
	case "table4b":
		table4b(eng)
	case "table4c":
		table4c(eng)
	case "fig3":
		fig3(parseSizes(*sizes), *msTimeout, *workers)
	case "faults":
		faults()
	case "all":
		table1()
		table2(eng)
		table3(eng)
		table4a(eng)
		table4b(eng)
		table4c(eng)
		fig3(parseSizes(*sizes), *msTimeout, *workers)
		faults()
	default:
		fmt.Fprintf(os.Stderr, "lybench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// verifySafety and verifyLiveness run one problem synchronously through the
// unified engine.Submit path — the only submission API the bench exercises.
func verifySafety(eng *engine.Engine, p *core.SafetyProblem) *core.Report {
	j, err := eng.Submit(context.Background(), engine.Workload{Safety: p})
	if err != nil {
		fatal(err)
	}
	return j.Wait()
}

func verifyLiveness(eng *engine.Engine, p *core.LivenessProblem) (*core.Report, error) {
	j, err := eng.Submit(context.Background(), engine.Workload{Liveness: p})
	if err != nil {
		return nil, err
	}
	return j.Wait(), nil
}

func parseSizes(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 2 {
			fmt.Fprintf(os.Stderr, "lybench: bad size %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// table1 prints the qualitative comparison of Table 1 with Lightyear's
// column grounded in this implementation.
func table1() {
	header("Table 1: tool feature matrix")
	rows := []struct{ feature, minesweeper, bagpipe, plankton, arc, lightyear string }{
		{"Analyzes all peer BGP routes", "yes", "yes", "no", "no", "yes (internal/core: symbolic external announcements)"},
		{"Analyzes failures", "yes", "no", "yes", "yes", "yes for safety (§4.5, core/safety.go)"},
		{"Checks safety and liveness", "yes", "partial", "no", "yes", "yes (core/safety.go, core/liveness.go)"},
		{"Verification fully automatic", "yes", "yes", "yes", "yes", "partial: user supplies local invariants"},
		{"Near linear scaling", "no", "no", "no", "no", "yes (checks linear in edges; see fig3)"},
		{"Localizes bugs", "no", "no", "no", "no", "yes (failed check names edge + filter)"},
	}
	fmt.Printf("%-34s %-12s %-9s %-9s %-5s %s\n", "feature", "minesweeper", "bagpipe", "plankton", "arc", "lightyear")
	for _, r := range rows {
		fmt.Printf("%-34s %-12s %-9s %-9s %-5s %s\n", r.feature, r.minesweeper, r.bagpipe, r.plankton, r.arc, r.lightyear)
	}
}

func table2(eng *engine.Engine) {
	header("Table 2: Figure-1 no-transit safety checks")
	n := netgen.Fig1(netgen.Fig1Options{})
	rep := verifySafety(eng, netgen.Fig1NoTransitProblem(n))
	printChecks(rep)
	fmt.Printf("verdict: OK=%v, %d checks in %v (max %d vars / %d clauses per check)\n",
		rep.OK(), rep.NumChecks(), rep.TotalTime, rep.MaxVars(), rep.MaxCons())

	fmt.Println("\nwith the §2.1 bug (import at R1 does not tag 100:1):")
	buggy := verifySafety(eng, netgen.Fig1NoTransitProblem(netgen.Fig1(netgen.Fig1Options{OmitTransitTag: true})))
	fmt.Print(buggy.Summary())
}

func table3(eng *engine.Engine) {
	header("Table 3: Figure-1 liveness checks")
	n := netgen.Fig1(netgen.Fig1Options{})
	rep, err := verifyLiveness(eng, netgen.Fig1LivenessProblem(n))
	if err != nil {
		fatal(err)
	}
	printChecks(rep)
	fmt.Printf("verdict: OK=%v, %d checks in %v\n", rep.OK(), rep.NumChecks(), rep.TotalTime)

	fmt.Println("\nwith the §2.2 bug (R3 keeps incoming communities):")
	buggy, err := verifyLiveness(eng, netgen.Fig1LivenessProblem(netgen.Fig1(netgen.Fig1Options{ForgetStripAtR3: true})))
	if err != nil {
		fatal(err)
	}
	fmt.Print(buggy.Summary())
}

func printChecks(rep *core.Report) {
	fmt.Printf("property: %s\n", rep.Property)
	for _, r := range rep.Results {
		status := "PASS"
		if !r.OK {
			status = "FAIL"
		}
		fmt.Printf("  %s [%-15s] %s\n", status, r.Kind, r.Desc)
	}
}

func table4a(eng *engine.Engine) {
	header("Table 4a: WAN peering properties (11 properties)")
	p := netgen.DefaultWANParams()
	n := netgen.WAN(p, netgen.WANBugs{})
	at := netgen.RegionRouter(0, 0)
	for _, prop := range netgen.PeeringProperties(p.Regions) {
		t0 := time.Now()
		rep := verifySafety(eng, netgen.PeeringProblem(n, at, prop))
		fmt.Printf("  %-26s OK=%v  checks=%d  time=%v\n", prop.Name, rep.OK(), rep.NumChecks(), time.Since(t0))
	}
	fmt.Println("\nwith an injected inconsistent edge filter (missing bogon clause):")
	buggy := netgen.WAN(p, netgen.WANBugs{MissingBogonFilter: true})
	rep := verifySafety(eng, netgen.PeeringProblem(buggy, at, netgen.PeeringProperties(p.Regions)[0]))
	fmt.Print(rep.Summary())
}

func table4b(eng *engine.Engine) {
	header("Table 4b: WAN IP-reuse safety per region")
	p := netgen.DefaultWANParams()
	n := netgen.WAN(p, netgen.WANBugs{})
	for r := 0; r < p.Regions; r++ {
		outside := netgen.EdgeRouter(0)
		if r != 1 {
			outside = netgen.RegionRouter((r+1)%p.Regions, 0)
		}
		t0 := time.Now()
		rep := verifySafety(eng, netgen.IPReuseSafetyProblem(n, p, r, outside))
		fmt.Printf("  region %d (checked outside at %-10s) OK=%v checks=%d time=%v\n",
			r, outside, rep.OK(), rep.NumChecks(), time.Since(t0))
	}
	fmt.Println("\nwith the metadata bug (region 0 tags with region 1's community):")
	buggy := netgen.WAN(p, netgen.WANBugs{WrongRegionCommunity: true})
	rep := verifySafety(eng, netgen.IPReuseSafetyProblem(buggy, p, 0, netgen.RegionRouter(1, 0)))
	fmt.Print(rep.Summary())
}

func table4c(eng *engine.Engine) {
	header("Table 4c: WAN IP-reuse liveness per region")
	p := netgen.DefaultWANParams()
	n := netgen.WAN(p, netgen.WANBugs{})
	for r := 0; r < p.Regions; r++ {
		t0 := time.Now()
		rep, err := verifyLiveness(eng, netgen.IPReuseLivenessProblem(n, p, r))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  region %d: OK=%v checks=%d time=%v\n", r, rep.OK(), rep.NumChecks(), time.Since(t0))
	}
}

// fig3 reproduces the scaling comparison: for each mesh size N it reports
// the monolithic formula size and times (3a, 3c) and Lightyear's per-check
// maxima and times (3b, 3d).
// fig3 measures solving, so each size runs on a fresh cache-free engine:
// FullMesh router names are size-independent and a warm cache would serve
// larger sizes from smaller ones, corrupting the scaling comparison.
func fig3(sizes []int, msTimeout time.Duration, workers int) {
	header("Figure 3: Lightyear vs Minesweeper on synthetic full meshes")
	fmt.Printf("%-5s | %12s %12s %10s %10s | %10s %10s %10s %10s\n",
		"N", "MS vars", "MS cons", "MS solve", "MS total", "LY maxvars", "LY maxcons", "LY solve", "LY total")
	loc, pred := netgen.FullMeshProperty()
	for _, size := range sizes {
		n := netgen.FullMesh(size)
		ms := minesweeper.Verify(n, loc, pred, []core.GhostDef{netgen.FullMeshGhost(n)},
			minesweeper.Options{Timeout: msTimeout})
		msSolve, msTotal := ms.SolveTime.Round(time.Millisecond).String(), ms.TotalTime.Round(time.Millisecond).String()
		if ms.Unknown {
			msSolve, msTotal = "timeout", "timeout"
		} else if !ms.Holds {
			msSolve += "(!)"
		}
		sizeEng := engine.New(engine.Options{Workers: workers, CacheSize: -1})
		rep := verifySafety(sizeEng, netgen.FullMeshProblem(n))
		sizeEng.Close()
		ok := ""
		if !rep.OK() {
			ok = "(!)"
		}
		fmt.Printf("%-5d | %12d %12d %10s %10s | %10d %10d %10s %10s%s\n",
			size, ms.NumVars, ms.NumCons, msSolve, msTotal,
			rep.MaxVars(), rep.MaxCons(),
			rep.SolveTime().Round(time.Millisecond), rep.TotalTime.Round(time.Millisecond), ok)
	}
	fmt.Println("(MS = monolithic Minesweeper-style baseline; LY = Lightyear modular checks.")
	fmt.Println(" Expected shape: MS vars/cons grow ~quadratically and solve time explodes;")
	fmt.Println(" LY per-check size is constant and total time linear in edges.)")
}

// faults demonstrates §4.5: the verified no-transit property survives
// random link failures in simulation.
func faults() {
	header("§4.5 fault tolerance: verified safety under random failures")
	n := netgen.Fig1(netgen.Fig1Options{})
	prob := netgen.Fig1NoTransitProblem(n)
	rep := core.VerifySafety(prob, core.Options{})
	fmt.Printf("static verification: OK=%v\n", rep.OK())

	rng := rand.New(rand.NewSource(42))
	links := [][2]topology.NodeID{{"R1", "R2"}, {"R1", "R3"}, {"R2", "R3"}}
	violations := 0
	trials := 200
	for trial := 0; trial < trials; trial++ {
		s := sim.New(n, []core.GhostDef{netgen.FromISP1Ghost(n)})
		s.Seed(int64(trial))
		r := routemodel.NewRoute(routemodel.MustPrefix("8.8.0.0/16"))
		r.ASPath = []uint32{174}
		r.AddCommunity(netgen.CommTransit) // adversarial announcement
		s.Announce(topology.Edge{From: "ISP1", To: "R1"}, r)
		c := routemodel.NewRoute(routemodel.MustPrefix("10.42.1.0/24"))
		c.ASPath = []uint32{64512}
		s.Announce(topology.Edge{From: "Customer", To: "R3"}, c)
		for _, l := range links {
			if rng.Intn(2) == 0 {
				s.FailLink(l[0], l[1])
			}
		}
		if v := s.Run(20000).CheckSafety(prob.Property.Loc, prob.Property.Pred); v != nil {
			violations++
		}
	}
	fmt.Printf("simulated %d random failure scenarios: %d violations (expect 0)\n", trials, violations)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lybench:", err)
	os.Exit(1)
}
