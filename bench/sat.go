package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"lightyear/internal/core"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
)

// stressBatch builds the sat-search batch: one pigeonhole refutation per
// entry of size.holes on the Figure 1 network, anchored round-robin at its
// routers and submitted in a seeded order. PHP(h+1, h) is unsatisfiable, so
// every obligation must come back OK; refuting it takes real CDCL search.
func stressBatch(size sizing, seed int64) []*core.SafetyProblem {
	n := netgen.Fig1(netgen.Fig1Options{})
	routers := n.Routers()
	batch := make([]*core.SafetyProblem, len(size.holes))
	for i, h := range size.holes {
		batch[i] = netgen.StressProblemAt(n, routers[i%len(routers)], h)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	return batch
}

// solveBatch submits the whole batch, waits for every report and grades it:
// one operation per obligation, failed unless it is decided OK, plus the
// problem's search obligation when the solver reports no conflicts at all.
func solveBatch(eng *engine.Engine, batch []*core.SafetyProblem) (unit, error) {
	t0, cpu0 := time.Now(), selfCPU()
	jobs := make([]*engine.Job, len(batch))
	for i, p := range batch {
		j, err := eng.Submit(context.Background(), engine.Workload{Kind: engine.KindSafety, Safety: p})
		if err != nil {
			return unit{}, fmt.Errorf("submit: %w", err)
		}
		jobs[i] = j
	}
	var u unit
	for _, j := range jobs {
		rep := j.Wait()
		var depth core.SolveStats
		for _, r := range rep.Results {
			u.Ops++
			u.Checks++
			depth.Add(r.Solver)
			if r.Status != core.StatusOK {
				u.Failed++
				if u.Note == "" {
					u.Note = fmt.Sprintf("%s: %s at %s", rep.Property.Desc, r.Status, r.Loc)
				}
			}
		}
		if depth.Conflicts == 0 {
			u.Failed++
			if u.Note == "" {
				u.Note = rep.Property.Desc + ": decided without a single conflict"
			}
		}
	}
	u.WallS, u.CPUS = time.Since(t0).Seconds(), (selfCPU() - cpu0).Seconds()
	return u, nil
}

// sat-search: the solver used for search, not for construction. It runs in
// this process on one worker with the cache off, so conflicts repeat
// exactly.
func measureSATSearch(e *env, seed int64, seconds float64) (*run, error) {
	t0 := time.Now()
	r := &run{}
	batch, err := setups(e, r, func() ([]*core.SafetyProblem, error) { return stressBatch(e.size, seed), nil }, nil)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Options{Workers: 1, CacheSize: -1})
	defer eng.Close()
	r.Units, r.WindowS, err = repeat(seconds, e.size.floor, func(int) (unit, error) { return solveBatch(eng, batch) })
	if err != nil {
		return nil, err
	}
	r.unitTotals()
	// The engine lives in this process, so its memory is this process's.
	if r.PeakRSSMB, err = procPeakRSSMB("self"); err != nil {
		return nil, err
	}
	r.RunS = time.Since(t0).Seconds()
	return r, nil
}
