package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lightyear/internal/config"
	"lightyear/internal/core"
	"lightyear/internal/corpus"
	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/fabric"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
	"lightyear/internal/solver"
	"lightyear/internal/store"
	"lightyear/internal/telemetry"
	"lightyear/internal/topology"
)

// The traced pass of each workload: which inputs it replays and which layers
// only it can measure.

// wanRequest is the request the WAN workloads make over configuration text.
func wanRequest(e *env, src string, scoped bool) plan.Request {
	p := plan.Property{Name: "wan-peering"}
	if scoped {
		for i := 0; i < e.size.scopeEdges; i++ {
			p.Routers = append(p.Routers, netgen.EdgeRouter(i))
		}
	}
	return plan.Request{Network: plan.Network{Config: src}, Properties: []plan.Property{p},
		Options: plan.Options{WANRegions: e.size.wan.Regions}}
}

// generated runs lygen in a fresh temp dir and returns the dir, the path and
// the text.
func generated(e *env, bug string) (dir, path, src string, err error) {
	if dir, err = e.tempDir("layers"); err != nil {
		return "", "", "", err
	}
	path = filepath.Join(dir, "wan.cfg")
	if err = lygen(e, path, bug); err == nil {
		var b []byte
		b, err = os.ReadFile(path)
		src = string(b)
	}
	if err != nil {
		os.RemoveAll(dir)
	}
	return dir, path, src, err
}

// lightyearLayer times the process around the pipeline: start-up on its own
// (-list, the median of five), and what one invocation with one worker costs
// beyond the same input replayed in this process with one worker.
func lightyearLayer(e *env, m map[string]float64, inProcessS float64, args ...string) error {
	var starts []float64
	for i := 0; i < 5; i++ {
		c, err := runChild(e.bin("lightyear"), []string{"-list"}, nil)
		if err != nil {
			return err
		}
		starts = append(starts, c.Wall.Seconds())
	}
	// The flag package keeps the last value of a repeated flag.
	c, err := runChild(e.bin("lightyear"), append(args, "-workers", "1"), nil)
	if err != nil {
		return err
	}
	if c.TimedOut {
		return fmt.Errorf("lightyear %v timed out", args)
	}
	m["lightyear.startup_s"] = median(starts)
	m["lightyear.residual_s"] = c.Wall.Seconds() - inProcessS
	return nil
}

func layersWANSweep(e *env, seed int64, tr *tracer) (*layerResult, error) {
	dir, path, src, err := generated(e, "")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := newReplay(tr).engine(0, nil)
	verdicts, err := r.run(0, source{src: src, req: wanRequest(e, src, false)})
	if err != nil {
		return nil, err
	}
	r.res.gradeInto(expectation{problems: peeringProperties * e.size.routers()}, verdicts)
	if err := r.warm(); err != nil {
		return nil, err
	}
	r.solvePath(seed)
	lr := r.finish()
	return lr, lightyearLayer(e, lr.Metrics, r.runS, verifyArgs(e, path)...)
}

func layersWANNoCache(e *env, seed int64, tr *tracer) (*layerResult, error) {
	dir, path, src, err := generated(e, "missing-bogon")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := newReplay(tr).engine(-1, nil)
	verdicts, err := r.run(0, source{src: src, req: wanRequest(e, src, true)})
	if err != nil {
		return nil, err
	}
	r.res.gradeInto(noCacheTruth(e), verdicts)
	r.solvePath(seed)
	extra := map[string]float64{}
	rpcS, err := fabricLayer(tr, extra, r.res, sample(r.uniq, backendSample, seed))
	if err != nil {
		return nil, err
	}
	if err := telemetryLayer(tr, extra, r.batches[:min(4, len(r.batches))]); err != nil {
		return nil, err
	}
	lr := r.finish()
	maps.Copy(lr.Metrics, extra)
	// The same sample through one RPC each and through the local backend.
	lr.Metrics["fabric.rpc_over_native"] = rpcS / lr.Metrics["solver.native_s"]
	return lr, lightyearLayer(e, lr.Metrics, r.runS, verifyArgs(e, path, "-routers", e.size.scope(), "-cache", "-1")...)
}

// fabricLayer measures the solver fabric without a fleet: the wire codec on
// its own, then one RPC per obligation against a worker served by httptest
// (no synthetic service floor), on the sample the backends were compared on.
func fabricLayer(tr *tracer, m map[string]float64, res *layerResult, obs []*core.Obligation) (rpcS float64, err error) {
	wires := make([][]byte, 0, len(obs))
	id := tr.begin("fabric.wire_encode", "fabric", 0)
	t0 := time.Now()
	for _, ob := range obs {
		w, err := core.EncodeObligation(ob)
		if err != nil {
			tr.end(id)
			return 0, fmt.Errorf("encode %s: %w", ob.Desc, err)
		}
		b, err := json.Marshal(w)
		if err != nil {
			tr.end(id)
			return 0, err
		}
		wires = append(wires, b)
	}
	encodeS := time.Since(t0).Seconds()
	tr.end(id)

	id = tr.begin("fabric.wire_decode", "fabric", 0)
	t0 = time.Now()
	bytes := 0
	for _, b := range wires {
		bytes += len(b)
		var w core.ObligationWire
		if err := json.Unmarshal(b, &w); err != nil {
			tr.end(id)
			return 0, err
		}
		if _, err := w.Obligation(); err != nil {
			tr.end(id)
			return 0, err
		}
	}
	decodeS := time.Since(t0).Seconds()
	tr.end(id)

	ts := httptest.NewServer(fabric.NewServer(fabric.ServerOptions{Backend: solver.Native(0)}))
	defer ts.Close()
	remote, err := fabric.New(fabric.Config{Workers: []string{strings.TrimPrefix(ts.URL, "http://")}})
	if err != nil {
		return 0, err
	}
	defer remote.Close()
	id = tr.begin("fabric.rpc", "fabric", 0)
	t0 = time.Now()
	for _, ob := range obs {
		out := remote.Solve(context.Background(), ob, solver.Budget{})
		res.Ops++
		if !strings.HasPrefix(out.Backend, "remote(") {
			res.note("fabric: %s was decided by %q, not by the worker", ob.Desc, out.Backend)
		}
	}
	rpcS = time.Since(t0).Seconds()
	tr.end(id)

	n := float64(len(obs))
	m["fabric.wire_encode_us"] = 1e6 * encodeS / n
	m["fabric.wire_decode_us"] = 1e6 * decodeS / n
	m["fabric.wire_bytes_per_ob"] = float64(bytes) / n
	m["fabric.rpc_us"] = 1e6 * rpcS / n
	return rpcS, nil
}

// telemetryLayer solves the same batches on an engine with and without a
// telemetry recorder, in turn, twice, and keeps the quicker of each.
func telemetryLayer(tr *tracer, m map[string]float64, bs []batch) error {
	best := map[bool]float64{}
	for round := 0; round < 2; round++ {
		for _, wired := range []bool{false, true} {
			var rec *telemetry.Recorder
			if wired {
				rec = telemetry.New(0)
			}
			eng := engine.New(engine.Options{Workers: 1, CacheSize: -1, Telemetry: rec})
			id := tr.begin(map[bool]string{false: "telemetry.nil", true: "telemetry.wired"}[wired], "telemetry", round)
			t0 := time.Now()
			for _, b := range bs {
				j, err := eng.Submit(context.Background(), engine.Workload{Kind: engine.KindChecks, Property: b.prop, Checks: b.checks})
				if err != nil {
					tr.end(id)
					eng.Close()
					return err
				}
				j.Wait()
			}
			d := time.Since(t0).Seconds()
			tr.end(id)
			eng.Close()
			if best[wired] == 0 || d < best[wired] {
				best[wired] = d
			}
		}
	}
	m["telemetry.wired_s"] = best[true]
	m["telemetry.overhead_share"] = (best[true] - best[false]) / best[false]
	return nil
}

func layersSATSearch(e *env, seed int64, tr *tracer) (*layerResult, error) {
	r := newReplay(tr).engine(-1, nil)
	problems := stressBatch(e.size, seed)
	var verdicts []problemVerdict
	err := r.timed(0, func() error {
		var bs []batch
		for i, p := range problems {
			id := tr.begin("core.enumerate", "core", i)
			checks := p.Checks(core.Options{})
			tr.end(id)
			bs = append(bs, batch{name: fmt.Sprintf("%s#%d", p.Property.Desc, i), prop: p.Property, checks: checks})
		}
		r.m["plan.problems"] = float64(len(bs))
		r.count(bs)
		var err error
		verdicts, err = r.solve(0, bs)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.res.gradeInto(expectation{problems: len(problems)}, verdicts)
	r.solvePath(seed)
	lr := r.finish()
	if lr.Metrics["sat.conflicts"] == 0 {
		lr.note("sat-search decided without a single conflict")
	}
	return lr, nil
}

func layersServeMixed(e *env, seed int64, tr *tracer) (*layerResult, error) {
	stream := newRequestStream(e.size, seed)
	reqs := make([]request, e.size.layerInputs)
	for i := range reqs {
		var err error
		if reqs[i], err = stream.next(); err != nil {
			return nil, err
		}
	}

	// The service path first, one client, a fresh server.
	srv, err := startServer(e.bin("lyserve"))
	if err != nil {
		return nil, err
	}
	client := &http.Client{}
	var served reply
	var notes []string
	rejected := 0
	for _, req := range reqs {
		rep := send(client, srv.base, req)
		served.WallS += rep.WallS
		served.AcceptS += rep.AcceptS
		served.Bytes += rep.Bytes
		served.Events += rep.Events
		served.Failed += rep.Failed
		if rep.Rejected {
			rejected++
		}
		if rep.Note != "" {
			notes = append(notes, rep.Note)
		}
	}
	client.CloseIdleConnections()
	srv.stop()

	// Then the same members through the pipeline in this process.
	r := newReplay(tr).engine(0, nil)
	r.res.Ops, r.res.Failed, r.res.Notes = len(reqs), served.Failed, notes
	for i, req := range reqs {
		verdicts, err := r.run(i, source{ref: req.ref, req: plan.Request{
			Network: plan.Network{Corpus: req.ref}, Properties: []plan.Property{{Name: corpus.PropertySuite}}}})
		if err != nil {
			return nil, err
		}
		ok, failing := true, []string(nil)
		for _, v := range verdicts {
			if !v.ok {
				ok, failing = false, append(failing, v.name)
			}
		}
		r.res.Ops++
		if note := gradeMember(req.truth, ok, failing, false); note != "" {
			r.res.note("%s: %s", req.ref, note)
		}
	}
	if err := r.warm(); err != nil {
		return nil, err
	}
	r.solvePath(seed)
	lr := r.finish()
	n := float64(len(reqs))
	lr.Metrics["lyserve.accept_ms"] = 1e3 * served.AcceptS / n
	lr.Metrics["lyserve.stream_mb_per_req"] = float64(served.Bytes) / 1e6 / n
	lr.Metrics["lyserve.events_per_req"] = float64(served.Events) / n
	lr.Metrics["lyserve.residual_ms"] = 1e3 * (served.WallS - r.runS) / n
	lr.Metrics["lyserve.rejected"] = float64(rejected)
	return lr, nil
}

func layersDeltaCLI(e *env, seed int64, tr *tracer) (*layerResult, error) {
	dir, err := e.tempDir("layers-delta")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := setupDelta(e, dir)
	if err != nil {
		return nil, err
	}
	// Two edits, the second on top of the first: one preserving, one not.
	plans := edits(e.size, seed)
	src1, err := plans[0].apply(s.src)
	if err != nil {
		return nil, err
	}
	src2, err := plans[1].apply(src1)
	if err != nil {
		return nil, err
	}
	journal, err := os.Stat(filepath.Join(s.warm, "results.jsonl"))
	if err != nil {
		return nil, err
	}
	storeDir := filepath.Join(dir, "store")
	if err := copyStore(s.warm, storeDir); err != nil {
		return nil, err
	}

	// What the CLI does twice and the verifier does inside: parse, diff,
	// enumerate. Timed on their own, outside the run.
	r := newReplay(tr) // its engine is built over the store, inside the run
	for i, src := range []string{s.src, src1} {
		if err := r.standalone(i, source{src: src}); err != nil {
			return nil, err
		}
	}
	req := wanRequest(e, src1, true)
	req.Options.Baseline = &plan.Network{Config: s.src}
	c, err := plan.Compile(req, nil)
	if err != nil {
		return nil, err
	}
	tr.in("topology.diff", "topology", 0, func() { topology.DiffNetworks(c.Baseline, c.Network) })
	if _, err := r.enumerate(0, c); err != nil {
		return nil, err
	}
	c.ReleasePrepared()

	// The run itself: open the warm store, compile, baseline, update.
	var st *store.Store
	var base, upd, upd2 *delta.Result
	run := func() error {
		id := tr.begin("store.open", "store", 0)
		st, err = store.Open(storeDir)
		tr.end(id)
		if err != nil {
			return err
		}
		r.engine(0, st)
		id = tr.begin("plan.compile", "plan", 0)
		c, err = plan.Compile(req, nil)
		tr.end(id)
		if err != nil {
			return err
		}
		v := delta.NewVerifierFor(r.eng, c)
		v.SetWorkload(c.Workload())
		id = tr.begin("delta.baseline", "delta", 0)
		base, err = v.Baseline(c.Baseline)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("delta.update", "delta", 0)
		upd, err = v.Update(c.Network)
		tr.end(id)
		if err != nil {
			return err
		}
		// A second update, outside what one CLI run does but with the other
		// verdict: the bogon filter goes.
		n2, err := config.Parse(src2)
		if err != nil {
			return err
		}
		id = tr.begin("delta.update", "delta", 1)
		upd2, err = v.Update(n2)
		tr.end(id)
		return err
	}
	if err := r.timed(0, run); err != nil {
		return nil, err
	}
	defer st.Close()
	r.res.Ops += 3
	if !base.OK || !upd.OK || upd2.OK {
		r.res.note("delta verdicts: baseline ok=%v, preserving edit ok=%v, violating edit ok=%v", base.OK, upd.OK, upd2.OK)
	}

	// The store on its own: look up keys it holds, add keys it does not.
	keys := make([]string, 0, 10000)
	for k := range r.keys {
		if len(keys) == cap(keys) {
			break
		}
		keys = append(keys, k)
	}
	var held core.CheckResult
	getS := tr.in("store.get", "store", 0, func() {
		for _, k := range keys {
			if v, ok := st.Get(k); ok {
				held = v
			}
		}
	})
	addS := tr.in("store.add", "store", 0, func() {
		for i := range keys {
			st.Add(fmt.Sprintf("bench-%d", i), held)
		}
	})

	used := r.eng.Stats()
	lr := r.finish()
	self := tr.selfTimes()
	m := lr.Metrics
	m["topology.diff_s"] = self["topology.diff"]
	m["store.open_s"] = self["store.open"]
	m["store.journal_mb"] = float64(journal.Size()) / 1e6
	m["store.get_us"] = 1e6 * getS / float64(len(keys))
	m["store.add_us"] = 1e6 * addS / float64(len(keys))
	m["delta.baseline_s"] = float64(base.ElapsedNanos) / 1e9
	m["delta.update_s"] = float64(upd.ElapsedNanos+upd2.ElapsedNanos) / 2e9
	m["delta.dirty"] = float64(upd.DirtyChecks)
	m["delta.reused"] = float64(upd.ReusedResults)
	m["delta.solved"] = float64(upd.Solved)
	m["delta.update_over_baseline"] = m["delta.update_s"] / m["delta.baseline_s"]
	// The engine ran under the verifier here, not under the replay.
	m["engine.solved"], m["engine.cache_hits"], m["engine.dedup_hits"] = float64(used.ChecksSolved), float64(used.CacheHits), float64(used.DedupHits)
	m["engine.cache_hit_share"] = float64(used.CacheHits) / float64(max(used.ChecksSubmitted, 1))

	edit := filepath.Join(dir, "edit.cfg")
	if err := os.WriteFile(edit, []byte(src1), 0o644); err != nil {
		return nil, err
	}
	cliStore := filepath.Join(dir, "cli-store")
	if err := copyStore(s.warm, cliStore); err != nil {
		return nil, err
	}
	// One CLI run does one update; take the second one out of the replay.
	oneRun := r.runS - float64(upd2.ElapsedNanos)/1e9
	return lr, lightyearLayer(e, m, oneRun, verifyArgs(e, edit, "-diff", s.cfg, "-store", cliStore, "-routers", e.size.scope())...)
}
