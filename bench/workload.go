package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lightyear/internal/netgen"
)

// sizing is everything -smoke shrinks; the workloads read nothing else.
type sizing struct {
	wan         netgen.WANParams
	scopeEdges  int      // edge routers in the -routers scope of wan-nocache and delta-cli
	holes       []int    // sat-search batch: one pigeonhole problem per entry
	floor       int      // fewest run units in a timed window (R)
	setupReps   int      // set-up repetitions behind setup_s
	serveWarmup int      // untimed requests before the serve-mixed window
	serveFloor  int      // fewest timed requests
	families    []string // corpus reference templates, %d = member seed
	layerInputs int      // serve-mixed members replayed by the traced pass
}

// fullSizing is the benchmark. The issue sized the WAN workloads on a
// 6-region network with three 7-8 s invocations each; the driver's budget
// (114 runs in 3420 s) leaves about 15 s of measuring per run, so the WAN is
// the 5-region one (26 routers, 41 externals, 762 sessions) and wan-nocache
// scopes to four edge routers. Repetitions stay at three or more.
var fullSizing = sizing{
	wan:         netgen.WANParams{Regions: 5, RoutersPerRegion: 4, EdgeRouters: 6, DCsPerRegion: 1, PeersPerEdge: 6},
	scopeEdges:  4,
	holes:       []int{8, 8, 7, 7, 7, 7, 7, 7, 7, 7, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6},
	floor:       3,
	setupReps:   3,
	serveWarmup: 10,
	serveFloor:  200,
	families: []string{
		"ring:%d:size=8", "tree:%d:depth=2", "tree:%d:depth=3", "waxman:%d:size=12",
		"fattree:%d:k=4", "zoo:%d:graph=abilene", "zoo:%d:graph=nsfnet",
	},
	layerInputs: 12,
}

var smokeSizing = sizing{
	wan:         netgen.WANParams{Regions: 3, RoutersPerRegion: 2, EdgeRouters: 2, DCsPerRegion: 1, PeersPerEdge: 2},
	scopeEdges:  2,
	holes:       []int{6, 5, 5, 4},
	floor:       1,
	setupReps:   1,
	serveWarmup: 2,
	serveFloor:  12,
	families:    []string{"ring:%d:size=4", "tree:%d:depth=2", "zoo:%d:graph=abilene"},
	layerInputs: 3,
}

// peeringProperties is the size of the wan-peering suite: eleven properties,
// each one problem per router. It is written down here, not asked of the
// program, because it is part of the ground truth.
const peeringProperties = 11

func (s sizing) routers() int { return s.wan.Regions*s.wan.RoutersPerRegion + s.wan.EdgeRouters }

// scope is the -routers argument of the scoped workloads: the first edge
// routers.
func (s sizing) scope() string {
	ids := make([]string, s.scopeEdges)
	for i := range ids {
		ids[i] = string(netgen.EdgeRouter(i))
	}
	return strings.Join(ids, ",")
}

// env is what every workload needs from the harness.
type env struct {
	dir    string // the benchmark's directory (the working directory)
	out    string // dir/out: binaries, temp dirs, results
	size   sizing
	smoke  bool
	buildS float64
}

func (e *env) bin(name string) string { return filepath.Join(e.out, "bin", name) }

// tempDir makes a fresh directory for one run under out/tmp.
func (e *env) tempDir(prefix string) (string, error) {
	base := filepath.Join(e.out, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix+"-")
}

// unit is the raw record of one run unit: a CLI invocation, a batch, a
// request, an edit run.
type unit struct {
	Label  string  `json:"label,omitempty"` // which input: a corpus reference, an edit
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s,omitempty"`
	RSSMB  float64 `json:"rss_mb,omitempty"`
	Checks int     `json:"checks"`
	Ops    int     `json:"ops"`            // operations attempted
	Failed int     `json:"failed"`         // operations whose outcome is not the ground truth
	Note   string  `json:"note,omitempty"` // the first mismatch
}

// run is one run of one workload: its raw samples and what they add up to.
type run struct {
	Seed    int64     `json:"seed"`
	SetupS  []float64 `json:"setup_s"` // one per set-up repetition
	Units   []unit    `json:"units"`
	WindowS float64   `json:"window_s"` // wall time the units cover
	// CPUS and PeakRSSMB are per run unit; the workload says how it took
	// them (rusage of each child, /proc of the server, this process).
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	RunS      float64 `json:"run_s"` // set-up, warm-up and window together
}

func (r *run) attempted() (ops, failed int) {
	for _, u := range r.Units {
		ops += u.Ops
		failed += u.Failed
	}
	return ops, failed
}

// endToEnd turns a run's samples into the end-to-end metrics.
func (r *run) endToEnd() map[string]float64 {
	walls := make([]float64, len(r.Units))
	checks := 0
	for i, u := range r.Units {
		walls[i] = u.WallS
		checks += u.Checks
	}
	ops, failed := r.attempted()
	return map[string]float64{
		"verdict_s":     median(walls),
		"verdict_p95_s": tail(walls),
		"checks_per_s":  float64(checks) / r.WindowS,
		"cpu_s":         r.CPUS,
		"peak_rss_mb":   r.PeakRSSMB,
		"setup_s":       median(r.SetupS),
		"failed_share":  float64(failed) / float64(max(ops, 1)),
	}
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// measure sets up (size.setupReps times), warms up and runs units for
	// about the given number of seconds.
	measure func(e *env, seed int64, seconds float64) (*run, error)
	// layers is the traced in-process replay of the same inputs.
	layers func(e *env, seed int64, tr *tracer) (*layerResult, error)
}

var workloads = []workload{
	{"wan-sweep", measureWANSweep, layersWANSweep},
	{"wan-nocache", measureWANNoCache, layersWANNoCache},
	{"sat-search", measureSATSearch, layersSATSearch},
	{"serve-mixed", measureServeMixed, layersServeMixed},
	{"delta-cli", measureDeltaCLI, layersDeltaCLI},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// repeat runs one unit after another until the next would overrun the
// window, and at least floor times. The window it reports is the time the
// units themselves took.
func repeat(seconds float64, floor int, one func(i int) (unit, error)) ([]unit, float64, error) {
	var units []unit
	window := 0.0
	start := time.Now()
	for i := 0; ; i++ {
		if i >= floor && time.Since(start).Seconds()+window/float64(i) > seconds {
			break
		}
		u, err := one(i)
		if err != nil {
			return nil, 0, err
		}
		units = append(units, u)
		window += u.WallS
	}
	return units, window, nil
}

// setups runs one set-up function size.setupReps times, and cheap ones more
// often (up to 100 times within three tenths of a second) so that the median
// of a few milliseconds is steady. It keeps the last result for the measurement
// and discards the others.
func setups[T any](e *env, r *run, setup func() (T, error), discard func(T)) (T, error) {
	var last T
	start := time.Now()
	for i := 0; i < e.size.setupReps || (!e.smoke && i < 100 && time.Since(start) < 300*time.Millisecond); i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
		last = v
	}
	return last, nil
}

// unitTotals fills the run's CPU and memory from its units: the median CPU,
// the largest peak.
func (r *run) unitTotals() {
	cpu := make([]float64, len(r.Units))
	rss := make([]float64, len(r.Units))
	for i, u := range r.Units {
		cpu[i], rss[i] = u.CPUS, u.RSSMB
	}
	r.CPUS, r.PeakRSSMB = median(cpu), maxOf(rss)
}
