package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"lightyear/internal/config"
	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/engine"
	"lightyear/internal/plan"
	"lightyear/internal/smt"
	"lightyear/internal/solver"
)

// The traced pass. Every layer is timed from outside, around its public
// functions, with the harness's own spans; nothing under cmd/ or internal/
// is instrumented. The pass replays a workload's generated inputs in this
// process, in pipeline order and one call at a time (the engine gets one
// worker), so that self times add up and every count repeats exactly. It is
// never the source of an end-to-end number.

// layerResult is what the traced pass of one workload produced.
type layerResult struct {
	Metrics map[string]float64
	Ops     int // verdicts compared with ground truth, backends with each other
	Failed  int
	Notes   []string
}

func (r *layerResult) note(format string, a ...any) {
	r.Failed++
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

// sampleSize bounds the per-obligation samples (backends, fabric, allocation
// counts): enough obligations for a stable mean, few enough to keep the pass
// inside a run's time.
const (
	backendSample = 2000
	allocSample   = 256
)

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// tracedBackend wraps the engine's solver backend in a span per solve, so
// the engine's self time is its span minus what the solver covers.
type tracedBackend struct {
	inner solver.Backend
	tr    *tracer
	n     atomic.Int64
}

func (b *tracedBackend) Name() string { return b.inner.Name() }

func (b *tracedBackend) Solve(ctx context.Context, ob *core.Obligation, budget solver.Budget) solver.Outcome {
	id := b.tr.begin("solver.solve", "solver", int(b.n.Add(1))-1)
	out := b.inner.Solve(ctx, ob, budget)
	b.tr.end(id)
	return out
}

// batch is one problem's generated checks.
type batch struct {
	name   string
	prop   core.Property
	checks []core.Check
}

// replay is the in-process pipeline of one traced pass: inputs go through
// parse, compile, enumerate, the engine and the report encoder on one shared
// engine, the way one lightyear or lyserve process would take them.
type replay struct {
	tr      *tracer
	eng     *engine.Engine
	m       map[string]float64
	res     *layerResult
	batches []batch             // everything submitted, for the warm pass
	keys    map[string]struct{} // unique check keys seen
	uniq    []*core.Obligation  // one obligation per key, first seen first
	runS    float64             // summed "run" spans: the in-process end to end
}

func newReplay(tr *tracer) *replay {
	return &replay{tr: tr, m: map[string]float64{}, res: &layerResult{}, keys: map[string]struct{}{}}
}

// engine builds the shared engine: one worker, the result cache as the
// workload has it (a size, or a store), the native backend behind a traced
// wrapper.
func (r *replay) engine(cacheSize int, cache engine.ResultCache) *replay {
	r.eng = engine.New(engine.Options{Workers: 1, CacheSize: cacheSize, Cache: cache,
		Backend: &tracedBackend{inner: solver.Native(0), tr: r.tr}})
	return r
}

// source is one plan-shaped input: a configuration (or the corpus member that
// generates it) and the request made over it.
type source struct {
	ref string // corpus reference; "" for plain configuration text
	src string // configuration text when ref == ""
	req plan.Request
}

// standalone times the layers a run goes through inside plan.Compile, on
// their own: corpus generation, the parser, the two fingerprints. They are
// outside the "run" span, so the run is not slowed by them; plan.Compile's
// self time is its span minus these.
func (r *replay) standalone(op int, s source) error {
	src := s.src
	if s.ref != "" {
		id := r.tr.begin("corpus.build", "corpus", op)
		m, err := corpus.Parse(s.ref)
		if err == nil {
			src, err = m.DSL()
		}
		r.tr.end(id)
		if err != nil {
			return err
		}
		r.m["corpus.dsl_bytes"] += float64(len(src))
	}
	m0 := mallocs()
	id := r.tr.begin("config.parse", "config", op)
	n, err := config.Parse(src)
	r.tr.end(id)
	if err != nil {
		return err
	}
	r.m["config.parse_allocs"] += float64(mallocs() - m0)
	r.m["config.bytes"] += float64(len(src))
	r.tr.in("config.fingerprint", "config", op, func() { config.SourceFingerprint(src) })
	r.tr.in("topology.fingerprint", "topology", op, func() { n.Fingerprint() })
	return nil
}

// timed runs f inside a "run" span: the part of the replay that a real run
// consists of, whose length is the in-process end-to-end time.
func (r *replay) timed(op int, f func() error) (err error) {
	r.runS += r.tr.in("run", "harness", op, func() { err = f() })
	return err
}

// run takes one input through compile, enumerate, engine and report, and
// returns each problem's verdict.
func (r *replay) run(op int, s source) (verdicts []problemVerdict, err error) {
	if err := r.standalone(op, s); err != nil {
		return nil, err
	}
	err = r.timed(op, func() error {
		id := r.tr.begin("plan.compile", "plan", op)
		c, err := plan.Compile(s.req, nil)
		r.tr.end(id)
		if err != nil {
			return err
		}
		bs, err := r.enumerate(op, c)
		if err != nil {
			return err
		}
		verdicts, err = r.solve(op, bs)
		return err
	})
	return verdicts, err
}

// enumerate generates a compiled plan's checks and counts them.
func (r *replay) enumerate(op int, c *plan.Compiled) ([]batch, error) {
	m0 := mallocs()
	id := r.tr.begin("core.enumerate", "core", op)
	preps := c.Prepared()
	r.tr.end(id)
	r.m["core.enumerate_allocs"] += float64(mallocs() - m0)
	var bs []batch
	for ui, u := range c.Units {
		for pi, p := range u.Problems {
			if err := preps[ui][pi].Err; err != nil {
				return nil, fmt.Errorf("problem %s: %w", p.Name, err)
			}
			bs = append(bs, batch{name: p.Name, prop: preps[ui][pi].Property, checks: preps[ui][pi].Checks})
		}
	}
	r.m["plan.problems"] += float64(len(bs))
	r.count(bs)
	return bs, nil
}

// count records the checks of one input: how many, and which obligations are
// new to the pass.
func (r *replay) count(bs []batch) {
	for _, b := range bs {
		r.m["core.checks"] += float64(len(b.checks))
		for _, c := range b.checks {
			if _, seen := r.keys[c.Key()]; !seen && c.Key() != "" {
				r.keys[c.Key()] = struct{}{}
				r.uniq = append(r.uniq, c.Obligation())
			}
		}
	}
}

// solve submits the batches of one input to the engine, waits for every
// report, and encodes the reports the way a JSON surface would.
func (r *replay) solve(op int, bs []batch) ([]problemVerdict, error) {
	r.batches = append(r.batches, bs...)
	before := r.eng.Stats()
	id := r.tr.begin("engine.cold", "engine", op)
	reports, wait, err := r.submit(bs)
	r.tr.end(id)
	if err != nil {
		return nil, err
	}
	after := r.eng.Stats()
	r.m["engine.solved"] += float64(after.ChecksSolved - before.ChecksSolved)
	r.m["engine.cache_hits"] += float64(after.CacheHits - before.CacheHits)
	r.m["engine.dedup_hits"] += float64(after.DedupHits - before.DedupHits)
	r.m["engine.queue_wait_s"] += wait

	id = r.tr.begin("engine.report", "engine", op)
	enc := json.NewEncoder(io.Discard)
	for _, rep := range reports {
		if err := enc.Encode(engine.EncodeReport(rep)); err != nil {
			r.tr.end(id)
			return nil, err
		}
	}
	r.tr.end(id)

	verdicts := make([]problemVerdict, len(bs))
	for i, rep := range reports {
		v := problemVerdict{name: bs[i].name, ok: rep.OK()}
		for _, f := range rep.Failures() {
			v.at = append(v.at, f.Loc.String())
		}
		verdicts[i] = v
	}
	return verdicts, nil
}

func (r *replay) submit(bs []batch) ([]*core.Report, float64, error) {
	jobs := make([]*engine.Job, len(bs))
	for i, b := range bs {
		j, err := r.eng.Submit(context.Background(), engine.Workload{Kind: engine.KindChecks, Property: b.prop, Checks: b.checks})
		if err != nil {
			return nil, 0, err
		}
		jobs[i] = j
	}
	reports := make([]*core.Report, len(bs))
	wait := 0.0
	for i, j := range jobs {
		reports[i] = j.Wait()
		wait += j.Stats().QueueWait().Seconds()
	}
	return reports, wait, nil
}

// warm submits everything again on the now-filled cache: the cost of a check
// the engine does not have to solve.
func (r *replay) warm() error {
	n := 0
	for _, b := range r.batches {
		n += len(b.checks)
	}
	m0 := mallocs()
	id := r.tr.begin("engine.warm", "engine", 0)
	_, _, err := r.submit(r.batches)
	r.tr.end(id)
	r.m["engine.warm_allocs"] = float64(mallocs() - m0)
	r.m["engine.warm_checks"] = float64(n)
	return err
}

// stages takes every unique obligation through the solve path one public
// call at a time: new context and solver, encode, bit-blast, SAT, witness.
func stages(tr *tracer, m map[string]float64, obs []*core.Obligation) {
	for i, ob := range obs {
		if ob.Concrete() {
			continue // decided by evaluation; no formula, no solver
		}
		id := tr.begin("smt.new", "smt", i)
		ctx := smt.NewContext()
		s := smt.NewSolver(ctx)
		tr.end(id)
		id = tr.begin("core.encode", "core", i)
		term := ob.Encode(ctx)
		tr.end(id)
		id = tr.begin("smt.blast", "smt", i)
		s.Assert(term)
		tr.end(id)
		id = tr.begin("sat.solve", "sat", i)
		res := s.Check()
		tr.end(id)
		if res.Status == smt.Sat {
			id = tr.begin("core.witness", "core", i)
			ob.Witness(res.Model)
			tr.end(id)
			m["core.witness_n"]++
		}
		m["stage.obligations"]++
		m["core.terms"] += float64(res.NumTerms)
		m["smt.vars"] += float64(res.NumVars)
		m["smt.clauses"] += float64(res.NumCons)
		m["sat.conflicts"] += float64(res.Stats.Conflicts)
		m["sat.decisions"] += float64(res.Stats.Decisions)
		m["sat.propagations"] += float64(res.Stats.Propagations)
	}
}

// stageAllocs counts heap allocations per stage on a spread-out sample of
// the obligations, with the collector off so that nothing else allocates in
// between.
func stageAllocs(m map[string]float64, obs []*core.Obligation) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	step := max(1, len(obs)/allocSample)
	n := 0
	for i := 0; i < len(obs); i += step {
		ob := obs[i]
		if ob.Concrete() {
			continue
		}
		a := mallocs()
		ctx := smt.NewContext()
		s := smt.NewSolver(ctx)
		b := mallocs()
		term := ob.Encode(ctx)
		c := mallocs()
		s.Assert(term)
		d := mallocs()
		m["smt.new_allocs"] += float64(b - a)
		m["core.encode_allocs"] += float64(c - b)
		m["smt.blast_allocs"] += float64(d - c)
		a = mallocs()
		solver.Native(0).Solve(context.Background(), ob, solver.Budget{})
		m["solver.native_allocs"] += float64(mallocs() - a)
		n++
	}
	m["alloc.sample"] = float64(n)
}

// sample picks at most n obligations with a seeded draw, keeping their order.
func sample(obs []*core.Obligation, n int, seed int64) []*core.Obligation {
	idx := rand.New(rand.NewSource(seed)).Perm(len(obs))
	if len(idx) > n {
		idx = idx[:n]
	}
	sort.Ints(idx)
	out := make([]*core.Obligation, len(idx))
	for i, j := range idx {
		out[i] = obs[j]
	}
	return out
}

// backends solves the same sample with each backend and compares verdicts.
func backends(tr *tracer, m map[string]float64, res *layerResult, obs []*core.Obligation) {
	var native []core.Status
	for _, b := range []solver.Backend{solver.Native(0), solver.Portfolio(0), solver.Tiered(0)} {
		name := "solver." + b.Name()
		for i, ob := range obs {
			id := tr.begin(name, "solver", i)
			out := b.Solve(context.Background(), ob, solver.Budget{})
			tr.end(id)
			res.Ops++
			switch {
			case b.Name() == "native":
				native = append(native, out.Status)
			case out.Status != native[i]:
				m["solver.parity_mismatches"]++
				res.note("%s decides %s, native %s: %s", b.Name(), out.Status, native[i], ob.Desc)
			}
		}
	}
	m["solver.sample"] = float64(len(obs))
}

// overhead replays the stage loop on a sample with spans off and on in turn,
// for at least two rounds and about a second and a half, and returns the
// share the spans add and the loop's time without them. It keeps the quicker
// loop of each kind: the figure is below a percent, the scheduler's noise is
// not.
func overhead(obs []*core.Obligation) (share, offS float64) {
	best := map[bool]float64{}
	start := time.Now()
	for round := 0; round < 2 || (round < 6 && time.Since(start).Seconds() < 1.5); round++ {
		for _, on := range []bool{false, true} {
			t0 := time.Now()
			stages(newTracer("overhead", on), map[string]float64{}, obs)
			if d := time.Since(t0).Seconds(); best[on] == 0 || d < best[on] {
				best[on] = d
			}
		}
	}
	return (best[true] - best[false]) / best[false], best[false]
}

// solvePath runs everything that is measured per obligation: the stages over
// every unique obligation, the allocation sample, and on one seeded sample
// the three backends and the stage loop again with spans off and on. The
// native backend is compared with that second, equally warm stage loop.
func (r *replay) solvePath(seed int64) {
	stages(r.tr, r.m, r.uniq)
	stageAllocs(r.m, r.uniq)
	smp := sample(r.uniq, backendSample, seed)
	backends(r.tr, r.m, r.res, smp)
	r.m["trace.overhead_share"], r.m["stage.sample_s"] = overhead(smp)
}

// finish turns the spans and accumulators into the per-layer metrics.
func (r *replay) finish() *layerResult {
	r.eng.Close()
	self := r.tr.selfTimes()
	m, out := r.m, map[string]float64{}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out["config.parse_s"] = self["config.parse"]
	out["config.parse_mb_per_s"] = div(m["config.bytes"]/1e6, self["config.parse"])
	out["config.parse_allocs"] = m["config.parse_allocs"]
	out["config.fingerprint_s"] = self["config.fingerprint"]
	out["topology.fingerprint_s"] = self["topology.fingerprint"]
	out["corpus.build_s"] = self["corpus.build"]
	out["corpus.dsl_bytes"] = m["corpus.dsl_bytes"]
	// plan.Compile parses (and, for a corpus member, generates) inside; its
	// own share is what is left after the same work timed on its own.
	out["plan.compile_s"] = max(0, self["plan.compile"]-self["config.parse"]-self["corpus.build"])
	out["plan.problems"] = m["plan.problems"]

	checks, unique := m["core.checks"], float64(len(r.keys))
	out["core.enumerate_s"] = self["core.enumerate"]
	out["core.enumerate_us_per_check"] = div(1e6*self["core.enumerate"], checks)
	out["core.enumerate_allocs_per_check"] = div(m["core.enumerate_allocs"], checks)
	out["core.checks"] = checks
	out["core.unique_keys"] = unique
	out["core.unique_share"] = div(unique, checks)

	obs, as := m["stage.obligations"], m["alloc.sample"]
	out["core.encode_s"] = self["core.encode"]
	out["core.encode_us_per_ob"] = div(1e6*self["core.encode"], obs)
	out["core.encode_allocs_per_ob"] = div(m["core.encode_allocs"], as)
	out["core.terms_per_ob"] = div(m["core.terms"], obs)
	out["core.witness_s"] = self["core.witness"]
	out["core.witness_n"] = m["core.witness_n"]
	out["smt.new_us_per_ob"] = div(1e6*self["smt.new"], obs)
	out["smt.new_allocs_per_ob"] = div(m["smt.new_allocs"], as)
	out["smt.blast_s"] = self["smt.blast"]
	out["smt.blast_us_per_ob"] = div(1e6*self["smt.blast"], obs)
	out["smt.blast_allocs_per_ob"] = div(m["smt.blast_allocs"], as)
	out["smt.vars_per_ob"] = div(m["smt.vars"], obs)
	out["smt.clauses_per_ob"] = div(m["smt.clauses"], obs)
	out["sat.solve_s"] = self["sat.solve"]
	out["sat.solve_us_per_ob"] = div(1e6*self["sat.solve"], obs)
	out["sat.conflicts"] = m["sat.conflicts"]
	out["sat.decisions"] = m["sat.decisions"]
	out["sat.propagations"] = m["sat.propagations"]
	out["sat.conflicts_per_s"] = div(m["sat.conflicts"], self["sat.solve"])

	native := self["solver.native"]
	out["solver.native_s"] = native
	out["solver.native_allocs_per_ob"] = div(m["solver.native_allocs"], as)
	out["solver.native_overhead_share"] = div(native-m["stage.sample_s"], native)
	out["solver.portfolio_s"] = self["solver.portfolio"]
	out["solver.tiered_s"] = self["solver.tiered"]
	out["solver.parity_mismatches"] = m["solver.parity_mismatches"]

	out["engine.cold_s"] = self["engine.cold"]
	out["engine.warm_s"] = self["engine.warm"]
	out["engine.warm_us_per_check"] = div(1e6*self["engine.warm"], m["engine.warm_checks"])
	out["engine.warm_allocs_per_check"] = div(m["engine.warm_allocs"], m["engine.warm_checks"])
	out["engine.solved"] = m["engine.solved"]
	out["engine.cache_hits"] = m["engine.cache_hits"]
	out["engine.dedup_hits"] = m["engine.dedup_hits"]
	out["engine.cache_hit_share"] = div(m["engine.cache_hits"], checks)
	out["engine.queue_wait_s"] = m["engine.queue_wait_s"]
	out["engine.report_s"] = self["engine.report"]

	// Time inside Backend.Solve under the engine: what engine.cold_s leaves out.
	out["solver.engine_s"] = self["solver.solve"]
	// The share of the run that lies inside some layer's span; the rest is
	// the harness between calls.
	out["trace.accounted_share"] = 1 - div(self["run"], r.runS)
	out["trace.overhead_share"] = m["trace.overhead_share"]
	r.res.Metrics = out
	return r.res
}

// gradeInto compares one input's verdicts with its ground truth.
func (r *layerResult) gradeInto(x expectation, verdicts []problemVerdict) {
	ops, failed, note := x.gradeProblems(verdicts)
	r.Ops += ops
	if failed > 0 {
		r.Failed += failed
		r.Notes = append(r.Notes, note)
	}
}

// tracedPass runs one workload's traced pass and writes its spans.
func tracedPass(e *env, w workload, seed int64) (*layerResult, error) {
	tr := newTracer(w.name, true)
	lr, err := w.layers(e, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, n := range lr.Notes {
		fmt.Fprintf(os.Stderr, "bench: %s: MISMATCH %s\n", w.name, n)
	}
	return lr, tr.write(filepath.Join(e.out, "trace-"+w.name+".json"))
}

// layersFile is out/layers.json.
type layersFile struct {
	Env       environment                   `json:"env"`
	Seed      int64                         `json:"seed"`
	Workloads map[string]map[string]float64 `json:"workloads"`
	// NonDeterministic lists, per workload, the count metrics that differed
	// between the two passes.
	NonDeterministic map[string][]string `json:"non_deterministic,omitempty"`
}

// layersSet runs the traced pass of every workload twice. The second pass
// exists to check that every count repeats exactly; times come from the
// first.
func layersSet(e *env, sp *spec, seed int64) error {
	file := layersFile{Env: e.environment(), Seed: seed, Workloads: map[string]map[string]float64{},
		NonDeterministic: map[string][]string{}}
	failed := 0
	for _, w := range workloads {
		var passes [2]*layerResult
		for i := range passes {
			fmt.Fprintf(os.Stderr, "bench: %s traced pass %d/2\n", w.name, i+1)
			lr, err := tracedPass(e, w, seed)
			if err != nil {
				return err
			}
			passes[i] = lr
			failed += lr.Failed
		}
		file.Workloads[w.name] = passes[0].Metrics
		for _, m := range sp.PerLayer {
			v := passes[0].Metrics[m.Name]
			mark := ""
			if m.Unit == "count" && passes[1].Metrics[m.Name] != v {
				mark = fmt.Sprintf(" NON-DETERMINISTIC (second pass %g)", passes[1].Metrics[m.Name])
				file.NonDeterministic[w.name] = append(file.NonDeterministic[w.name], m.Name)
			}
			fmt.Printf("%-12s %-34s %14.6g %-6s%s\n", w.name, m.Name, v, m.Unit, mark)
		}
		fmt.Printf("%-12s attempted=%d succeeded=%d failed=%d\n", w.name, passes[0].Ops, passes[0].Ops-passes[0].Failed, passes[0].Failed)
	}
	if err := writeJSON(filepath.Join(e.out, "layers.json"), file); err != nil {
		return err
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d operations do not match the ground truth", failed)
	case len(file.NonDeterministic) > 0:
		return fmt.Errorf("count metrics differ between two passes: %v", file.NonDeterministic)
	}
	return nil
}
