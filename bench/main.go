// Command bench is the repository's benchmark: five workloads run against
// the built programs and the engine, every verdict checked against ground
// truth that does not come from the verifier, end-to-end metrics with
// regression bounds (BENCHMARK.json), and a separate traced pass that times
// every layer from outside. See README.md in this directory.
//
// It runs from its own directory:
//
//	go run . -seed 1                # every workload, out/results.json
//	go run . -layers                # the traced pass, out/layers.json, out/trace-*.json
//	go run . -compare a.json b.json # apply the bounds to two result files
//	go run . -aa                    # the whole set twice, interleaved, compared
//	go run . -smoke                 # everything shrunk to a few seconds
//
// The driver's form, `-workload W -seed N -seconds S -trace 0|1`, runs one
// workload once and prints one JSON object as its last line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// spec is BENCHMARK.json: the workloads, the metrics and their bounds. The
// harness reads names, units and bounds from it, so the file and the
// program cannot drift apart.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(dir string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("run from the benchmark's directory: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// failedShare is reported beside the metrics of BENCHMARK.json. It is 0 at
// the baseline, which a bound that is a share of the parent's median cannot
// express; the result line carries it as failed/attempted and the comparator
// treats any increase as a regression.
var failedShare = metricSpec{Name: "failed_share", Unit: "ratio", Better: "lower"}

// environment is recorded with every result file.
type environment struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	BuildS     float64 `json:"build_s"`
	Smoke      bool    `json:"smoke,omitempty"`
}

func (e *env) environment() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.dir, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{Commit: commit, Go: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), BuildS: e.buildS, Smoke: e.smoke}
}

// build compiles the programs under test into out/bin. Build time is part
// of the environment, not of setup_s.
func (e *env) build() error {
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", filepath.Join(e.out, "bin")+string(filepath.Separator),
		"lightyear/cmd/lightyear", "lightyear/cmd/lyserve", "lightyear/cmd/lygen")
	cmd.Dir = e.dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	e.buildS = time.Since(t0).Seconds()
	return nil
}

func newEnv(smoke bool) (*env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir, out: filepath.Join(dir, "out"), size: fullSizing, smoke: smoke}
	if smoke {
		e.size = smokeSizing
	}
	if err := os.MkdirAll(filepath.Join(e.out, "bin"), 0o755); err != nil {
		return nil, err
	}
	return e, e.build()
}

// metricValue is one metric of the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverRun is one run of one workload in the driver's form.
func driverRun(e *env, sp *spec, name string, seed int64, seconds float64, traced bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	line := resultLine{Metrics: map[string]metricValue{}}
	if traced {
		lr, err := tracedPass(e, w, seed)
		if err != nil {
			return err
		}
		line.Attempted, line.Failed = lr.Ops, lr.Failed
		for _, m := range sp.PerLayer {
			line.Metrics[m.Name] = metricValue{lr.Metrics[m.Name], m.Unit}
		}
	} else {
		r, err := w.measure(e, seed, seconds)
		if err != nil {
			return err
		}
		r.Seed = seed
		if err := writeJSON(filepath.Join(e.out, "samples-"+name+".json"), []*run{r}); err != nil {
			return err
		}
		line.Attempted, line.Failed = r.attempted()
		got := r.endToEnd()
		for _, m := range sp.EndToEnd {
			line.Metrics[m.Name] = metricValue{got[m.Name], m.Unit}
		}
		for _, u := range r.Units {
			if u.Note != "" {
				fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, u.Note)
			}
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return errors.New("outputs do not match the ground truth")
	}
	return nil
}

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Why     string             `json:"why"`
	Runs    []runRecord        `json:"runs"`
	Summary map[string]summary `json:"summary"` // per metric, over the runs
}

type runRecord struct {
	Seed      int64              `json:"seed"`
	RunS      float64            `json:"run_s"`
	Units     int                `json:"units"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// results is out/results.json.
type results struct {
	Env       environment                `json:"env"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// set accumulates rounds of the whole workload set into one result file.
type set struct {
	e       *env
	sp      *spec
	res     *results
	samples map[string][]*run
}

func newSet(e *env, sp *spec, seed int64, seconds float64) *set {
	s := &set{e: e, sp: sp, samples: map[string][]*run{},
		res: &results{Env: e.environment(), Seed: seed, Seconds: seconds, Workloads: map[string]*workloadResult{}}}
	for _, w := range sp.Workloads {
		s.res.Workloads[w.Name] = &workloadResult{Why: w.Why}
	}
	return s
}

// round runs every workload once with seed+i, in reverse order if asked, so
// that no workload always runs after the same neighbour.
func (s *set) round(i int, reverse bool) error {
	order := append([]workload(nil), workloads...)
	if reverse {
		for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
			order[a], order[b] = order[b], order[a]
		}
	}
	for _, w := range order {
		fmt.Fprintf(os.Stderr, "bench: %s round %d\n", w.name, i+1)
		r, err := w.measure(s.e, s.res.Seed+int64(i), s.res.Seconds)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		r.Seed = s.res.Seed + int64(i)
		s.samples[w.name] = append(s.samples[w.name], r)
		ops, failed := r.attempted()
		wr := s.res.Workloads[w.name]
		wr.Runs = append(wr.Runs, runRecord{Seed: r.Seed, RunS: r.RunS, Units: len(r.Units),
			Attempted: ops, Failed: failed, Metrics: r.endToEnd()})
		for _, u := range r.Units {
			if u.Note != "" {
				fmt.Fprintf(os.Stderr, "bench: %s: MISMATCH %s\n", w.name, u.Note)
			}
		}
	}
	return nil
}

// finish summarises the rounds, prints one line per metric, and writes the
// result file and the raw samples under out/ with the given suffix.
func (s *set) finish(suffix string) (*results, error) {
	for _, w := range workloads {
		wr := s.res.Workloads[w.name]
		wr.Summary = map[string]summary{}
		for _, m := range append(append([]metricSpec(nil), s.sp.EndToEnd...), failedShare) {
			var xs []float64
			for _, r := range wr.Runs {
				xs = append(xs, r.Metrics[m.Name])
			}
			sm := summarize(xs)
			wr.Summary[m.Name] = sm
			fmt.Printf("%-12s %-14s %14.6g %-6s n=%d spread=%.4f\n", w.name, m.Name, sm.Median, m.Unit, sm.N, sm.Spread)
		}
		ops, failed := 0, 0
		for _, r := range wr.Runs {
			ops, failed = ops+r.Attempted, failed+r.Failed
		}
		fmt.Printf("%-12s attempted=%d succeeded=%d failed=%d\n", w.name, ops, ops-failed, failed)
		if err := writeJSON(filepath.Join(s.e.out, "samples-"+w.name+suffix+".json"), s.samples[w.name]); err != nil {
			return nil, err
		}
	}
	return s.res, writeJSON(filepath.Join(s.e.out, "results"+suffix+".json"), s.res)
}

func (r *results) failed() int {
	n := 0
	for _, w := range r.Workloads {
		for _, rr := range w.Runs {
			n += rr.Failed
		}
	}
	return n
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload once and print the driver's result line")
		seed    = flag.Int64("seed", 1, "seed of every random draw the inputs are made from")
		seconds = flag.Float64("seconds", 0, "length of a timed window (0 = run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "with -workload: 1 runs the traced per-layer pass instead of the timed one")
		layers  = flag.Bool("layers", false, "run the traced per-layer pass for every workload")
		runs    = flag.Int("runs", 1, "repetitions of the whole set (per side with -aa)")
		compare = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		aa      = flag.Bool("aa", false, "run the whole set twice, interleaved, and compare the two")
		smoke   = flag.Bool("smoke", false, "shrink every workload so the whole set takes a few seconds")
	)
	flag.Parse()
	// The harness is the load generator and, for sat-search and the traced
	// pass, hosts the engine: two threads, like the programs it starts.
	runtime.GOMAXPROCS(2)

	err := func() error {
		dir, err := os.Getwd()
		if err != nil {
			return err
		}
		sp, err := loadSpec(dir)
		if err != nil {
			return err
		}
		if *compare {
			if flag.NArg() != 2 {
				return errors.New("usage: -compare old.json new.json")
			}
			return compareFiles(sp, flag.Arg(0), flag.Arg(1))
		}
		e, err := newEnv(*smoke)
		if err != nil {
			return err
		}
		if *seconds == 0 && !*smoke {
			*seconds = float64(sp.RunSeconds)
		}
		switch {
		case *name != "":
			return driverRun(e, sp, *name, *seed, *seconds, *trace == 1)
		case *layers:
			return layersSet(e, sp, *seed)
		case *aa:
			return runAA(e, sp, *seed, *seconds, max(*runs, 2))
		}
		st := newSet(e, sp, *seed, *seconds)
		for i := 0; i < *runs; i++ {
			if err := st.round(i, i%2 == 1); err != nil {
				return err
			}
		}
		res, err := st.finish("")
		if err != nil {
			return err
		}
		if n := res.failed(); n > 0 {
			return fmt.Errorf("%d operations do not match the ground truth", n)
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
