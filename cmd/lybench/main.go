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
//	-experiment admission multi-tenant admission sweep: tenant count × per-tenant
//	                      quota, reporting p50/p99 queue wait and the rejection
//	                      rate under the engine's weighted-fair dispatcher
//	-experiment shard     distributed solver fabric scaling: the sat-stress
//	                      obligations shipped to an in-process lyworker fleet
//	                      of 1..N capacity-capped workers over real HTTP,
//	                      reporting checks/sec, rpc latency quantiles, and the
//	                      per-worker shard counters
//	-experiment faults    differential simulation under random failures (§4.5)
//	-experiment corpus    scenario-corpus sweep: the default roster of ≥30
//	                      generated topologies (ring, tree, fattree, waxman,
//	                      zoo) with one bug planted per member, asserting
//	                      100% detection with zero mislocalizations, plus a
//	                      property-preserving fuzz soak and byte-identical
//	                      regeneration checks; -seed picks the roster,
//	                      -members truncates it for smoke runs
//	-experiment migrate   migration-plan verification: ordered walks of k
//	                      commuting steps on a WAN (per-step dirty subset vs
//	                      whole-network re-verification) and the safe-order
//	                      search on the same set declared unordered (states
//	                      verified vs k! orderings), plus the fig1 filter
//	                      swap where exactly one order of six is safe
//	-experiment all       everything above
//
// The §6.1 scale run and the solver-backend comparison that used to live here
// are the repository benchmark's wan-sweep workload and solver.* layer
// metrics (bench/), which grade every verdict and repeat their runs.
//
// With -out FILE the shard, migrate, and corpus experiments additionally
// write a JSON benchmark document (BENCH_shard.json / BENCH_migrate.json /
// BENCH_corpus.json in this repo's committed trajectory): completed checks
// per second, allocations per
// check, p50/p99 solve-time and queue-wait quantiles derived from the
// same internal/telemetry histograms lyserve exposes at /metrics, and the
// solver-depth dimensions (mean CDCL conflicts and learned clauses per
// solved check) from the engine's per-backend provenance — so the
// committed numbers and the production metrics come from one code path.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/engine"
	"lightyear/internal/fabric"
	"lightyear/internal/migrate"
	"lightyear/internal/minesweeper"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
	"lightyear/internal/routemodel"
	"lightyear/internal/sim"
	"lightyear/internal/solver"
	"lightyear/internal/telemetry"
	"lightyear/internal/topology"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run")
		sizes      = flag.String("sizes", "10,20,30,40", "fig3: comma-separated mesh sizes")
		msTimeout  = flag.Duration("ms-timeout", 2*time.Minute, "fig3: Minesweeper per-size timeout (paper used 2h)")
		workers    = flag.Int("workers", 0, "parallel check workers (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "base seed for seeded experiments (corpus roster, fuzz soak); recorded in every -out document")
		members    = flag.Int("members", 0, "corpus: verify only the first N roster members (0 = all)")
		out        = flag.String("out", "", "write a JSON benchmark document (shard, migrate, and corpus experiments)")
	)
	flag.Parse()
	switch *experiment {
	case "shard", "migrate", "corpus":
	default:
		if *out != "" {
			fmt.Fprintf(os.Stderr, "lybench: -out is supported by the shard, migrate, and corpus experiments, not %q\n", *experiment)
			os.Exit(2)
		}
	}

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
	case "admission":
		admissionExperiment(*workers)
	case "shard":
		shardExperiment(*seed, *out)
	case "faults":
		faults()
	case "migrate":
		migrateExperiment(*workers, *seed, *out)
	case "corpus":
		corpusExperiment(*workers, *seed, *members, *out)
	case "all":
		table1()
		table2(eng)
		table3(eng)
		table4a(eng)
		table4b(eng)
		table4c(eng)
		fig3(parseSizes(*sizes), *msTimeout, *workers)
		admissionExperiment(*workers)
		shardExperiment(*seed, "")
		faults()
		migrateExperiment(*workers, *seed, "")
		corpusExperiment(*workers, *seed, *members, "")
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

// benchRow is one measured run in a -out document. The quantiles come from
// the internal/telemetry histograms the engine fills — the same series
// lyserve exposes at /metrics — not from ad-hoc stopwatches.
type benchRow struct {
	Name            string  `json:"name,omitempty"`
	Checks          uint64  `json:"checks"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
	ChecksPerSec    float64 `json:"checks_per_sec"`
	AllocsPerCheck  float64 `json:"allocs_per_check,omitempty"`
	SolveP50Seconds float64 `json:"solve_p50_seconds,omitempty"`
	SolveP99Seconds float64 `json:"solve_p99_seconds,omitempty"`
	QueueP50Seconds float64 `json:"queue_wait_p50_seconds,omitempty"`
	QueueP99Seconds float64 `json:"queue_wait_p99_seconds,omitempty"`
	// Solver-depth dimensions: mean CDCL conflicts and learned clauses per
	// solved check, from the same core.SolveStats provenance every
	// CheckResult carries. Deliberately not omitempty — a recorded 0 means
	// "decided without search", which the committed trajectory should state
	// explicitly rather than omit.
	ConflictsPerCheck float64 `json:"conflicts_per_check"`
	LearnedPerCheck   float64 `json:"learned_clauses_per_check"`
}

// benchRate derives the throughput fields once checks and elapsed are set.
func (r *benchRow) benchRate(allocs uint64) {
	if r.ElapsedSeconds > 0 {
		r.ChecksPerSec = float64(r.Checks) / r.ElapsedSeconds
	}
	if r.Checks > 0 {
		r.AllocsPerCheck = float64(allocs) / float64(r.Checks)
	}
}

func writeDoc(path string, doc any) {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchmark written to %s\n", path)
}

// wanSpec renders WAN parameters as the serializable generator spec compiled
// plans carry, so the bench's networks are built by the exact registry path
// the CLI and lyserve use.
func wanSpec(p netgen.WANParams) *netgen.GeneratorSpec {
	return &netgen.GeneratorSpec{
		Kind:             "wan",
		Regions:          p.Regions,
		RoutersPerRegion: p.RoutersPerRegion,
		EdgeRouters:      p.EdgeRouters,
		DCsPerRegion:     p.DCsPerRegion,
		PeersPerEdge:     p.PeersPerEdge,
	}
}

// admissionExperiment sweeps tenant count × per-tenant quota on one shared
// engine: every tenant floods the engine with the same stream of peering
// workloads through engine.Submit, and the table reports how the admission
// layer (per-tenant token quotas, shed-before-queue) and the weighted-fair
// dispatcher shape p50/p99 queue wait and the rejection rate. Quota 0 is
// the unlimited baseline: nothing is rejected and every tenant's backlog
// queues, so its tail wait is the cost of *not* shedding.
func admissionExperiment(workers int) {
	header("admission: tenant count × per-tenant quota sweep")
	p := netgen.WANParams{Regions: 2, RoutersPerRegion: 1, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 2}
	n := netgen.WAN(p, netgen.WANBugs{})
	suite, ok := netgen.Lookup("wan-peering")
	if !ok {
		fatal(fmt.Errorf("wan-peering suite not registered"))
	}
	problems := suite.Problems(n, netgen.SuiteParams{Regions: p.Regions}, netgen.Scope{})
	const perTenant = 48 // workloads each tenant submits
	unitCost := len(problems[0].Safety.Checks(core.Options{}))
	fmt.Printf("workload: %d submissions/tenant, ~%d checks each (%d problems cycled)\n",
		perTenant, unitCost, len(problems))
	fmt.Printf("%-8s %-14s | %8s %8s %8s | %10s %10s\n",
		"tenants", "quota", "admitted", "rejected", "rate", "p50 wait", "p99 wait")

	for _, tenants := range []int{1, 2, 4} {
		for _, quota := range []int{0, 8 * unitCost, 2 * unitCost} {
			eng := engine.New(engine.Options{
				Workers:   workers,
				Admission: engine.Admission{PerTenantQuota: quota},
			})
			var (
				mu       sync.Mutex
				waits    []time.Duration
				rejected int
				jobs     []*engine.Job
			)
			var wg sync.WaitGroup
			for t := 0; t < tenants; t++ {
				wg.Add(1)
				go func(t int) {
					defer wg.Done()
					tenant := fmt.Sprintf("tenant-%d", t)
					for i := 0; i < perTenant; i++ {
						prob := problems[i%len(problems)]
						j, err := eng.Submit(context.Background(), engine.Workload{
							Safety: prob.Safety,
							Tenant: tenant,
						})
						mu.Lock()
						if err != nil {
							rejected++ // shed before queueing; no retry
						} else {
							jobs = append(jobs, j)
						}
						mu.Unlock()
					}
				}(t)
			}
			wg.Wait()
			for _, j := range jobs {
				j.Wait()
				waits = append(waits, j.Stats().QueueWait())
			}
			eng.Close()

			total := tenants * perTenant
			label := "unlimited"
			if quota > 0 {
				label = fmt.Sprintf("%d checks", quota)
			}
			fmt.Printf("%-8d %-14s | %8d %8d %7.1f%% | %10v %10v\n",
				tenants, label, len(jobs), rejected, 100*float64(rejected)/float64(total),
				percentile(waits, 0.50).Round(time.Microsecond),
				percentile(waits, 0.99).Round(time.Microsecond))
		}
	}
	fmt.Println("(tight quotas trade rejections for bounded queue wait: admitted work")
	fmt.Println(" starts sooner because excess load was shed at the door, and the fair")
	fmt.Println(" dispatcher keeps the admitted tails balanced across tenants.)")
}

// percentile returns the p-th percentile (0..1) of the sorted copy of d.
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
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

// pacedBackend holds a worker slot for at least floor of wall clock per
// solve on top of the real solve, emulating a worker machine's per-check
// service time. The shard sweep runs every fleet size on one benchmark
// host, so the fleets cannot differ in CPU — the floor makes worker
// capacity (slots × fleet size) the resource that binds, the same way
// dedicated per-worker cores would in a deployment.
type pacedBackend struct {
	inner solver.Backend
	floor time.Duration
}

func (p pacedBackend) Name() string { return p.inner.Name() }

func (p pacedBackend) Solve(ctx context.Context, ob *core.Obligation, b solver.Budget) solver.Outcome {
	t0 := time.Now()
	out := p.inner.Solve(ctx, ob, b)
	if d := p.floor - time.Since(t0); d > 0 {
		select {
		case <-ctx.Done():
		case <-time.After(d):
		}
	}
	return out
}

// shardRow is one fleet size in the shard experiment's -out document: the
// usual throughput fields plus the fabric-side accounting that shows where
// the checks actually ran.
type shardRow struct {
	benchRow
	FleetSize     int                  `json:"fleet_size"`
	RemoteSolves  int64                `json:"remote_solves"`
	Failovers     int64                `json:"failovers"`
	Fallbacks     int64                `json:"fallbacks"`
	RPCP50Seconds float64              `json:"rpc_p50_seconds"`
	RPCP99Seconds float64              `json:"rpc_p99_seconds"`
	PerWorker     []fabric.WorkerStats `json:"per_worker"`
}

// shardExperiment measures how sat-stress throughput scales with the size
// of the distributed solver fleet. Each row starts a fresh in-process fleet
// of fabric workers on loopback listeners — real HTTP, real wire
// serialization, the same Server lyworker runs — and pushes one hard
// pigeonhole obligation per (router, holes) pair through a remote-backed
// engine with caching disabled, so every hard check pays a genuine remote
// solve. Workers are capped at slotsPerWorker concurrent solves and pace
// each solve to a wall-clock service floor (pacedBackend), modeling
// fixed-size worker machines: every in-process "worker" shares the bench
// host's cores, so raw CPU scaling is not observable here — what the sweep
// measures is the coordinator's side of the fabric (sharding, pipelining,
// slot admission) as fleet capacity slots×workers grows, which is exactly
// the resource a real deployment adds with each machine. The engine's own
// worker pool matches the fleet's total slot count, so coordinator-side
// concurrency grows with the fleet the way a deployment's would.
func shardExperiment(seed int64, out string) {
	header("shard: solver fabric scaling on sat-stress")
	const (
		slotsPerWorker = 2
		serviceFloor   = 10 * time.Millisecond
	)
	// A deliberately small network: the sweep measures solver sharding, so
	// the per-edge trivial filter checks (pure RPC overhead) must not drown
	// the hard pigeonhole obligations that carry the search load.
	p := netgen.WANParams{Regions: 2, RoutersPerRegion: 1, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 2}
	n := netgen.WAN(p, netgen.WANBugs{})
	// One hard obligation per (router, holes) pair: the anchor location is
	// part of the check key, so the fleet's consistent-hash ring spreads
	// the load across shards instead of pinning it to one worker.
	var problems []*core.SafetyProblem
	for _, r := range n.Routers() {
		for _, holes := range []int{3, 4, 5} {
			problems = append(problems, netgen.StressProblemAt(n, r, holes))
		}
	}
	fmt.Printf("workload: %d pigeonhole obligations across %d routers, %d solve slots/worker\n",
		len(problems), len(n.Routers()), slotsPerWorker)
	fmt.Printf("%-6s | %8s %8s %8s %8s | %10s %10s | %s\n",
		"fleet", "checks", "remote", "failover", "fallback", "rpc p50", "wall", "per-worker solves")

	var rows []shardRow
	for _, fleet := range []int{1, 2, 4} {
		rec := telemetry.New(0)
		addrs := make([]string, 0, fleet)
		servers := make([]*http.Server, 0, fleet)
		for i := 0; i < fleet; i++ {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fatal(err)
			}
			srv := &http.Server{Handler: fabric.NewServer(fabric.ServerOptions{
				Backend: pacedBackend{inner: solver.Native(0), floor: serviceFloor},
				Name:    fmt.Sprintf("bench-w%d", i),
				// Headroom over the modeled slot count absorbs the bursts
				// consistent hashing sends at a popular shard; the engine's
				// worker pool (slots × fleet) is what binds capacity.
				MaxConcurrent: 2 * slotsPerWorker,
			})}
			go srv.Serve(l)
			addrs = append(addrs, l.Addr().String())
			servers = append(servers, srv)
		}
		remote, err := fabric.New(fabric.Config{
			Workers:      addrs,
			MaxAttempts:  fleet,
			RetryBackoff: time.Millisecond,
			Recorder:     rec,
		})
		if err != nil {
			fatal(err)
		}
		eng := engine.New(engine.Options{
			Workers:   slotsPerWorker * fleet,
			CacheSize: -1,
			Backend:   remote,
			Telemetry: rec,
		})
		t0 := time.Now()
		jobs := make([]*engine.Job, 0, len(problems))
		for _, prob := range problems {
			j, err := eng.Submit(context.Background(), engine.Workload{Safety: prob})
			if err != nil {
				fatal(err)
			}
			jobs = append(jobs, j)
		}
		var checks uint64
		for _, j := range jobs {
			if rep := j.Wait(); !rep.OK() {
				fmt.Printf("  unexpected failure under fleet size %d\n", fleet)
			}
			checks += uint64(j.NumChecks())
		}
		wall := time.Since(t0)
		st := remote.Stats()
		eng.Close()
		remote.Close()
		for _, srv := range servers {
			srv.Close()
		}

		row := shardRow{FleetSize: fleet, Failovers: st.Failovers, Fallbacks: st.Fallbacks, PerWorker: st.Workers}
		row.Name = fmt.Sprintf("%d-worker fleet", fleet)
		row.Checks = checks
		row.ElapsedSeconds = wall.Seconds()
		row.benchRate(0)
		rpc := rec.Histogram("lightyear_fabric_rpc_seconds", "", nil, "worker")
		row.RPCP50Seconds, row.RPCP99Seconds = rpc.Quantile(0.50), rpc.Quantile(0.99)
		perWorker := ""
		for i, w := range st.Workers {
			row.RemoteSolves += w.Solved
			if i > 0 {
				perWorker += " "
			}
			perWorker += fmt.Sprintf("w%d:%d", i, w.Solved)
		}
		rows = append(rows, row)
		fmt.Printf("%-6d | %8d %8d %8d %8d | %10v %10v | %s\n",
			fleet, checks, row.RemoteSolves, st.Failovers, st.Fallbacks,
			time.Duration(row.RPCP50Seconds*float64(time.Second)).Round(time.Microsecond),
			wall.Round(time.Millisecond), perWorker)
	}
	if out != "" {
		doc := struct {
			Experiment       string     `json:"experiment"`
			Seed             int64      `json:"seed"`
			Scenarios        int        `json:"scenarios"`
			SlotsPerWorker   int        `json:"slots_per_worker"`
			ServiceFloorSecs float64    `json:"service_floor_seconds"`
			Obligations      int        `json:"obligations"`
			Speedup          float64    `json:"speedup_vs_one_worker"`
			Rows             []shardRow `json:"rows"`
		}{Experiment: "shard", Seed: seed, Scenarios: len(rows), SlotsPerWorker: slotsPerWorker,
			ServiceFloorSecs: serviceFloor.Seconds(), Obligations: len(problems), Rows: rows}
		if len(rows) > 1 && rows[0].ChecksPerSec > 0 {
			doc.Speedup = rows[len(rows)-1].ChecksPerSec / rows[0].ChecksPerSec
		}
		writeDoc(out, doc)
	}
	fmt.Println("(expected shape: wall time shrinks as workers join the ring — fleet")
	fmt.Println(" capacity, not the bench host, is the binding resource; 'fallback'")
	fmt.Println(" counts checks that exhausted every shard and solved locally.)")
}

// migrateRow is one line of the migrate experiment: an ordered walk or a
// safe-order search of a k-step plan, with the per-step delta-reuse
// evidence (dirty vs reused) and — for searches — the explored-state
// counters that show the memoization and commutativity cuts at work.
type migrateRow struct {
	Plan         string  `json:"plan"`
	Steps        int     `json:"steps"`
	Unordered    bool    `json:"unordered,omitempty"`
	Checks       int     `json:"checks"`
	DirtyPerStep float64 `json:"dirty_per_step"`
	ReusedPer    float64 `json:"reused_per_step"`
	SolvedPer    float64 `json:"solved_per_step"`
	StepsPerSec  float64 `json:"steps_per_sec"`
	StepSeconds  float64 `json:"step_walk_seconds"`
	TotalSeconds float64 `json:"elapsed_seconds"`
	SearchStates int     `json:"search_states,omitempty"`
	MemoHits     int     `json:"memo_hits,omitempty"`
	Pruned       int     `json:"pruned,omitempty"`
	SafeOrder    string  `json:"safe_order,omitempty"`
}

// migrateExperiment measures internal/migrate: a steps × change-size sweep
// of ordered plans (k commuting single-router tightenings on a WAN — each
// step's dirty subset stays the size of its own change while the plan
// grows), the same change sets declared unordered (the canonical-order cut
// collapses k! orderings to one explored chain of k states), and the fig1
// filter swap, where exactly one order of six is safe and the search must
// actually explore.
func migrateExperiment(workers int, seed int64, out string) {
	header("migrate: steps × change size, ordered walk and safe-order search")
	p := netgen.WANParams{Regions: 3, RoutersPerRegion: 2, EdgeRouters: 8, DCsPerRegion: 1, PeersPerEdge: 2}
	var rows []migrateRow

	runPlan := func(name string, mp migrate.Plan) {
		c, err := migrate.Compile(mp, nil)
		if err != nil {
			fatal(err)
		}
		// Fresh engine per plan: every row pays its own cold baseline and the
		// per-step numbers are not cross-contaminated by the shared cache.
		eng := engine.New(engine.Options{Workers: workers})
		res, err := migrate.Run(context.Background(), eng, c, migrate.RunConfig{})
		eng.Close()
		if err != nil {
			fatal(err)
		}
		if !res.OK {
			fmt.Printf("  unexpected failure: %s\n", res.Reason)
			return
		}
		row := migrateRow{Plan: name, Steps: c.NumSteps(), Unordered: mp.Unordered,
			SearchStates: res.SearchStates, MemoHits: res.MemoHits, Pruned: res.PrunedOrders,
			TotalSeconds: res.Elapsed().Seconds(), SafeOrder: strings.Join(res.OrderLabels, " ")}
		var stepNanos int64
		var dirty, reused, solved int
		for _, sr := range res.Steps {
			row.Checks = sr.Checks
			dirty += sr.Dirty
			reused += sr.Reused
			solved += sr.Solved
			stepNanos += sr.ElapsedNanos
		}
		if n := len(res.Steps); n > 0 {
			row.DirtyPerStep = float64(dirty) / float64(n)
			row.ReusedPer = float64(reused) / float64(n)
			row.SolvedPer = float64(solved) / float64(n)
		}
		row.StepSeconds = float64(stepNanos) / float64(time.Second)
		if stepNanos > 0 {
			row.StepsPerSec = float64(len(res.Steps)) / row.StepSeconds
		}
		rows = append(rows, row)
		mode := "ordered"
		if mp.Unordered {
			mode = fmt.Sprintf("search: %d states, %d memo, %d pruned", res.SearchStates, res.MemoHits, res.PrunedOrders)
		}
		fmt.Printf("%-22s | %5d steps | %8d checks | %7.1f dirty/step %8.1f reused/step | %8.1f steps/s | %10v | %s\n",
			name, row.Steps, row.Checks, row.DirtyPerStep, row.ReusedPer,
			row.StepsPerSec, res.Elapsed().Round(time.Millisecond), mode)
	}

	wanPlan := func(k int, unordered bool) migrate.Plan {
		return migrate.Plan{
			Network:    &plan.Network{Generator: wanSpec(p)},
			Properties: []plan.Property{{Name: "wan-peering"}},
			Options:    plan.Options{WANRegions: p.Regions, Workers: workers},
			Steps:      migrate.Steps(netgen.WANTightenSteps(k)),
			Unordered:  unordered,
		}
	}
	for _, k := range []int{2, 4, 8} {
		runPlan(fmt.Sprintf("wan-tighten-%d", k), wanPlan(k, false))
	}
	for _, k := range []int{2, 4, 8} {
		runPlan(fmt.Sprintf("wan-tighten-%d-search", k), wanPlan(k, true))
	}
	runPlan("fig1-filter-swap-search", migrate.Plan{
		Network:    &plan.Network{Generator: &netgen.GeneratorSpec{Kind: "fig1"}},
		Properties: []plan.Property{{Name: "fig1-no-transit"}},
		Options:    plan.Options{Workers: workers},
		Steps:      migrate.Steps(netgen.Fig1FilterSwap()),
		Unordered:  true,
	})

	if out != "" {
		doc := struct {
			Experiment string       `json:"experiment"`
			Workers    int          `json:"workers"`
			Seed       int64        `json:"seed"`
			Scenarios  int          `json:"scenarios"`
			Rows       []migrateRow `json:"rows"`
		}{Experiment: "migrate", Workers: workers, Seed: seed, Scenarios: len(rows), Rows: rows}
		if doc.Workers == 0 {
			doc.Workers = runtime.GOMAXPROCS(0)
		}
		writeDoc(out, doc)
	}
	fmt.Println("(expected shape: dirty/step tracks the per-step change, not the plan")
	fmt.Println(" length; unordered commuting sets verify k states, not k! orders; the")
	fmt.Println(" fig1 swap finds its single safe order of six after a real search.)")
}

// corpusRow is one synthesizer family's aggregate of the corpus sweep: how
// many members ran, the check volume, the planted-bug detection score, and
// the per-family solve-time envelope from the lightyear_corpus_solve_seconds
// histogram — the same series lyserve exposes at /metrics.
type corpusRow struct {
	Family          string  `json:"family"`
	Members         int     `json:"members"`
	Checks          uint64  `json:"checks"`
	Planted         int     `json:"planted"`
	Detected        int     `json:"detected"`
	SolveP50Seconds float64 `json:"solve_p50_seconds"`
	SolveP99Seconds float64 `json:"solve_p99_seconds"`
}

// corpusDoc is the -out document of the corpus experiment (BENCH_corpus.json
// in this repo's committed trajectory).
type corpusDoc struct {
	Experiment     string      `json:"experiment"`
	Workers        int         `json:"workers"`
	Seed           int64       `json:"seed"`
	Scenarios      int         `json:"scenarios"`
	Planted        int         `json:"planted"`
	Detected       int         `json:"detected"`
	DetectionRate  float64     `json:"detection_rate"`
	Checks         uint64      `json:"checks"`
	ElapsedSeconds float64     `json:"elapsed_seconds"`
	FuzzWalks      int         `json:"fuzz_walks"`
	Reproducible   bool        `json:"reproducible"`
	Rows           []corpusRow `json:"rows"`
}

// corpusExperiment sweeps the default scenario roster: >= 30 deterministic
// topologies across every synthesizer family, each verified under the full
// wan-peering property set with a planted bug, grading detection against
// the member's ground truth. Every member is also regenerated and
// byte-compared (the reproducibility contract), and one clean member per
// family takes a property-preserving fuzz walk whose result must still
// verify. A detection or grading miss fails the run with exit 1 — the
// sweep asserts 100% detection, it does not merely report it.
func corpusExperiment(workers int, seed int64, members int, out string) {
	header("corpus: randomized scenario sweep with planted-bug ground truth")
	roster := corpus.DefaultRoster(seed)
	if members > 0 && members < len(roster) {
		roster = roster[:members]
	}
	suite, ok := netgen.Lookup(corpus.PropertySuite)
	if !ok {
		fatal(fmt.Errorf("suite %q not registered", corpus.PropertySuite))
	}
	rec := telemetry.New(0)
	corpus.SetTelemetry(rec)
	defer corpus.SetTelemetry(nil)

	type famAgg struct {
		members, planted, detected int
		checks                     uint64
		first                      corpus.Member
	}
	agg := map[string]*famAgg{}
	var order []string
	planted, detected, misgraded := 0, 0, 0
	reproducible := true
	var totalChecks uint64
	t0 := time.Now()
	fmt.Printf("%-36s | %7s %8s %9s | %s\n", "member", "routers", "checks", "time", "detection")
	for _, m := range roster {
		// Reproducibility: regenerating the member (and its canonical
		// reference) must be byte-identical.
		text, err := m.DSL()
		if err != nil {
			fatal(err)
		}
		if again, err := m.DSL(); err != nil || again != text {
			fmt.Printf("  %s: regeneration is not byte-identical\n", m.Ref())
			reproducible = false
		}
		rt, err := corpus.Parse(m.Ref())
		if err != nil {
			fatal(err)
		}
		if again, err := rt.DSL(); err != nil || again != text {
			fmt.Printf("  %s: reference round-trip diverges\n", m.Ref())
			reproducible = false
		}

		n, gt, err := m.Build()
		if err != nil {
			fatal(err)
		}
		failing, checks, elapsed := corpusVerify(n, suite, workers)
		corpus.ObserveSolve(m.Family, elapsed.Seconds())
		totalChecks += checks

		a := agg[m.Family]
		if a == nil {
			a = &famAgg{first: m}
			agg[m.Family] = a
			order = append(order, m.Family)
		}
		a.members++
		a.checks += checks

		verdict := "clean: ok"
		graded := true
		if gt != nil {
			planted++
			a.planted++
			hit, unexpected := 0, 0
			for _, name := range failing {
				if strings.HasPrefix(name, gt.Property+"@") {
					hit++
				} else {
					unexpected++
				}
			}
			switch {
			case hit > 0 && unexpected == 0:
				verdict = fmt.Sprintf("DETECTED %s (%d problems)", gt.Property, hit)
				detected++
				a.detected++
			case hit > 0:
				verdict = fmt.Sprintf("detected %s, but %d unrelated failures", gt.Property, unexpected)
				graded = false
			default:
				verdict = fmt.Sprintf("MISSED %s", gt.Property)
				graded = false
			}
		} else if len(failing) > 0 {
			verdict = fmt.Sprintf("clean member FAILED %d problems", len(failing))
			graded = false
		}
		if !graded {
			misgraded++
		}
		fmt.Printf("%-36s | %7d %8d %9v | %s\n",
			m.Ref(), len(n.Routers()), checks, elapsed.Round(time.Millisecond), verdict)
	}
	elapsed := time.Since(t0)

	// Fuzz soak: a seeded property-preserving walk on one clean member per
	// family; the mutated network must still verify the full suite.
	fuzzWalks := 0
	fmt.Println("fuzz soak (property-preserving walks):")
	for _, fam := range order {
		m := agg[fam].first
		m.Bug = ""
		n, _, err := m.Build()
		if err != nil {
			fatal(err)
		}
		res, err := corpus.Fuzz(n, seed, 4)
		if err != nil {
			fatal(err)
		}
		failing, _, _ := corpusVerify(res.Network, suite, workers)
		fuzzWalks++
		if len(failing) > 0 {
			fmt.Printf("  %s: %d mutations BROKE %d problems (verifier or fuzzer bug)\n",
				m.Ref(), len(res.Trail), len(failing))
			misgraded++
		} else {
			fmt.Printf("  %s: %d mutations, suite still verifies\n", m.Ref(), len(res.Trail))
		}
	}

	solve := rec.Histogram("lightyear_corpus_solve_seconds", "", nil, "family")
	var rows []corpusRow
	fmt.Printf("%-10s | %7s %8s %8s %8s | %10s %10s\n",
		"family", "members", "checks", "planted", "detected", "p50", "p99")
	for _, fam := range order {
		a := agg[fam]
		h := solve.With(fam)
		row := corpusRow{Family: fam, Members: a.members, Checks: a.checks,
			Planted: a.planted, Detected: a.detected,
			SolveP50Seconds: h.Quantile(0.50), SolveP99Seconds: h.Quantile(0.99)}
		rows = append(rows, row)
		fmt.Printf("%-10s | %7d %8d %8d %8d | %10v %10v\n",
			fam, a.members, a.checks, a.planted, a.detected,
			time.Duration(row.SolveP50Seconds*float64(time.Second)).Round(time.Millisecond),
			time.Duration(row.SolveP99Seconds*float64(time.Second)).Round(time.Millisecond))
	}
	rate := 0.0
	if planted > 0 {
		rate = float64(detected) / float64(planted)
	}
	fmt.Printf("corpus: %d members, %d planted bugs, %d detected (%.0f%%), %d checks in %v\n",
		len(roster), planted, detected, rate*100, totalChecks, elapsed.Round(time.Millisecond))

	if out != "" {
		doc := corpusDoc{Experiment: "corpus", Workers: workers, Seed: seed,
			Scenarios: len(roster), Planted: planted, Detected: detected,
			DetectionRate: rate, Checks: totalChecks,
			ElapsedSeconds: elapsed.Seconds(), FuzzWalks: fuzzWalks,
			Reproducible: reproducible, Rows: rows}
		if doc.Workers == 0 {
			doc.Workers = runtime.GOMAXPROCS(0)
		}
		writeDoc(out, doc)
	}
	if misgraded > 0 || detected < planted || !reproducible {
		fatal(fmt.Errorf("corpus sweep failed: %d/%d detected, %d misgraded, reproducible=%v",
			detected, planted, misgraded, reproducible))
	}
}

// corpusVerify runs the full property suite over one member on a fresh
// engine (cold per member, like the wan experiment's plan mode: all
// problems submitted before any is awaited) and returns the failing problem
// names, the submitted check volume, and the wall time.
func corpusVerify(n *topology.Network, suite netgen.Suite, workers int) ([]string, uint64, time.Duration) {
	problems := suite.Problems(n, netgen.SuiteParams{}, netgen.Scope{})
	eng := engine.New(engine.Options{Workers: workers})
	defer eng.Close()
	t0 := time.Now()
	jobs := make([]*engine.Job, len(problems))
	for i, p := range problems {
		j, err := eng.Submit(context.Background(), engine.Workload{Safety: p.Safety})
		if err != nil {
			fatal(err)
		}
		jobs[i] = j
	}
	var failing []string
	for i, j := range jobs {
		if !j.Wait().OK() {
			failing = append(failing, problems[i].Name)
		}
	}
	elapsed := time.Since(t0)
	return failing, uint64(eng.Stats().ChecksSubmitted), elapsed
}
