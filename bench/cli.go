package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lightyear/internal/netgen"
)

// The three workloads that drive cmd/lightyear as a subprocess.

// lygen writes the WAN configuration the workloads verify.
func lygen(e *env, path, bug string) error {
	p := e.size.wan
	args := []string{"-topo", "wan",
		"-regions", strconv.Itoa(p.Regions), "-routers-per-region", strconv.Itoa(p.RoutersPerRegion),
		"-edge-routers", strconv.Itoa(p.EdgeRouters), "-dcs-per-region", strconv.Itoa(p.DCsPerRegion),
		"-peers-per-edge", strconv.Itoa(p.PeersPerEdge), "-o", path}
	if bug != "" {
		args = append(args, "-bug", bug)
	}
	c, err := runChild(e.bin("lygen"), args, nil)
	if err != nil {
		return err
	}
	if c.Exit != 0 {
		return fmt.Errorf("lygen exited %d", c.Exit)
	}
	return nil
}

// verifyArgs is the lightyear command line every CLI workload shares.
func verifyArgs(e *env, cfg string, extra ...string) []string {
	return append([]string{"-config", cfg, "-property", "wan-peering",
		"-wan-regions", strconv.Itoa(e.size.wan.Regions), "-workers", "2"}, extra...)
}

// pageIn runs the binary once, untimed, so the first timed invocation does
// not pay for reading it from disk.
func pageIn(e *env) error {
	c, err := runChild(e.bin("lightyear"), []string{"-list"}, nil)
	if err == nil && c.Exit != 0 {
		err = fmt.Errorf("lightyear -list exited %d", c.Exit)
	}
	return err
}

// problemVerdict is one problem of a CLI report.
type problemVerdict struct {
	name string // "no-bogons@edge-0"
	ok   bool
	at   []string // locations of its FAIL lines
}

// cliReport is what the harness reads off lightyear's human-readable
// output, a line at a time.
type cliReport struct {
	problems []problemVerdict
	checks   int // engine: checks submitted
	delta    struct {
		seen         bool
		dirty, total int
		ok           bool
	}
}

func (r *cliReport) line(b []byte) {
	switch {
	case bytes.HasPrefix(b, []byte("property: ")):
		// "... @ edge-0 (no-bogons at edge-0)"; an over-long line arrives
		// cut and then names no problem.
		name := "?"
		if i := bytes.LastIndexByte(b, '('); i >= 0 && b[len(b)-1] == ')' {
			name = strings.Replace(string(b[i+1:len(b)-1]), " at ", "@", 1)
		}
		r.problems = append(r.problems, problemVerdict{name: name})
	case bytes.HasPrefix(b, []byte("checks: ")) && len(r.problems) > 0:
		var n, failed, unknown int
		if _, err := fmt.Sscanf(string(b), "checks: %d, failed: %d, unknown: %d", &n, &failed, &unknown); err == nil {
			r.problems[len(r.problems)-1].ok = failed == 0 && unknown == 0
		}
	case bytes.HasPrefix(b, []byte("FAIL [")) && len(r.problems) > 0:
		// "FAIL [import] at peer-e0-0 -> edge-0: import at ..."
		s := string(b)
		if i := strings.Index(s, "] at "); i >= 0 {
			rest := s[i+len("] at "):]
			if j := strings.Index(rest, ": "); j >= 0 {
				p := &r.problems[len(r.problems)-1]
				p.at = append(p.at, rest[:j])
			}
		}
	case bytes.HasPrefix(b, []byte("engine: ")):
		fmt.Sscanf(string(b), "engine: %d checks submitted", &r.checks)
	case bytes.HasPrefix(b, []byte("delta update: ")):
		var routers, reused, solved int
		d := &r.delta
		if _, err := fmt.Sscanf(string(b), "delta update: %d routers changed, %d/%d checks dirty, %d reused, %d solved, ok=%t",
			&routers, &d.dirty, &d.total, &reused, &solved, &d.ok); err == nil {
			d.seen = true
		}
	}
}

// expectation is the ground truth of one CLI invocation, known from how the
// input was built.
type expectation struct {
	exit     int
	problems int                 // problems the report must hold
	failing  map[string]struct{} // problem names that must fail; every other must pass
	at       string              // where every failure must be localised
}

// grade compares a finished invocation with its ground truth, one operation
// per problem.
func (x expectation) grade(c child, rep *cliReport) (ops, failed int, note string) {
	if c.TimedOut || c.Exit != x.exit {
		return x.problems, x.problems, fmt.Sprintf("exit %d (timed out: %v), want %d", c.Exit, c.TimedOut, x.exit)
	}
	return x.gradeProblems(rep.problems)
}

// gradeProblems compares per-problem verdicts with the ground truth.
func (x expectation) gradeProblems(problems []problemVerdict) (ops, failed int, note string) {
	miss := func(format string, a ...any) {
		failed++
		if note == "" {
			note = fmt.Sprintf(format, a...)
		}
	}
	for _, p := range problems {
		_, mustFail := x.failing[p.name]
		switch {
		case p.ok == mustFail:
			miss("problem %s ok=%v, want ok=%v", p.name, p.ok, !mustFail)
		case mustFail && !localised(p.at, x.at):
			miss("problem %s fails at %v, want %s", p.name, p.at, x.at)
		}
	}
	if len(problems) != x.problems {
		miss("%d problems reported, want %d", len(problems), x.problems)
		failed = max(failed, abs(x.problems-len(problems)))
	}
	return x.problems, min(failed, x.problems), note
}

func localised(at []string, want string) bool {
	if len(at) == 0 {
		return false
	}
	for _, a := range at {
		if a != want {
			return false
		}
	}
	return true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// invoke runs one lightyear invocation and grades it.
func invoke(e *env, args []string, x expectation) (unit, *cliReport, error) {
	rep := &cliReport{}
	c, err := runChild(e.bin("lightyear"), args, rep.line)
	if err != nil {
		return unit{}, nil, err
	}
	u := unit{WallS: c.Wall.Seconds(), CPUS: c.CPU.Seconds(), RSSMB: c.RSSMB, Checks: rep.checks}
	u.Ops, u.Failed, u.Note = x.grade(c, rep)
	return u, rep, nil
}

// measureCLI is the shape wan-sweep and wan-nocache share: generate one
// configuration, then invoke lightyear on it over and over.
func measureCLI(e *env, seconds float64, bug string, x expectation, extra ...string) (*run, error) {
	t0 := time.Now()
	dir, err := e.tempDir("wan")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{}
	n := 0
	cfg, err := setups(e, r, func() (string, error) {
		n++
		path := filepath.Join(dir, fmt.Sprintf("wan-%d.cfg", n))
		return path, lygen(e, path, bug)
	}, nil)
	if err != nil {
		return nil, err
	}
	if err := pageIn(e); err != nil {
		return nil, err
	}
	r.Units, r.WindowS, err = repeat(seconds, e.size.floor, func(int) (unit, error) {
		u, _, err := invoke(e, verifyArgs(e, cfg, extra...), x)
		return u, err
	})
	if err != nil {
		return nil, err
	}
	r.unitTotals()
	r.RunS = time.Since(t0).Seconds()
	return r, nil
}

// wan-sweep: the whole peering suite on the clean WAN. Every problem must
// verify. The generator is deterministic, so the seed changes nothing here.
func measureWANSweep(e *env, _ int64, seconds float64) (*run, error) {
	return measureCLI(e, seconds, "", expectation{exit: 0, problems: peeringProperties * e.size.routers()})
}

// noCacheTruth is the ground truth of the missing-bogon WAN scoped to the
// first edge routers: the bogon filter is gone from peer-e0-0's import at
// edge-0, so no-bogons fails at each scoped router, localised on that
// session, and the other ten properties hold.
func noCacheTruth(e *env) expectation {
	x := expectation{exit: 1, problems: peeringProperties * e.size.scopeEdges,
		failing: map[string]struct{}{},
		at:      fmt.Sprintf("%s -> %s", netgen.PeerNode(0, 0), netgen.EdgeRouter(0))}
	for i := 0; i < e.size.scopeEdges; i++ {
		x.failing["no-bogons@"+string(netgen.EdgeRouter(i))] = struct{}{}
	}
	return x
}

// wan-nocache: the planted-bug WAN with the result cache off, so every check
// is encoded and solved.
func measureWANNoCache(e *env, _ int64, seconds float64) (*run, error) {
	return measureCLI(e, seconds, "missing-bogon", noCacheTruth(e), "-routers", e.size.scope(), "-cache", "-1")
}

// edit is one seeded one-router change to the WAN configuration.
type edit struct {
	edge, peer int
	violating  bool
}

func (d edit) routeMap() string { return fmt.Sprintf("peer-import-e%d-%d", d.edge, d.peer) }

// apply rewrites the edit's route map in src: a verdict-preserving edit
// tightens the prefix-length filter, a violating one deletes the bogon
// filter.
func (d edit) apply(src string) (string, error) {
	head := "route-map " + d.routeMap() + " {\n"
	i := strings.Index(src, head)
	if i < 0 {
		return "", fmt.Errorf("no %s in the generated configuration", d.routeMap())
	}
	j := i + strings.Index(src[i:], "\n}\n")
	block := src[i:j]
	var edited string
	if d.violating {
		k := strings.Index(block, "match prefix-list bogons")
		if k < 0 {
			return "", fmt.Errorf("%s has no bogon term", d.routeMap())
		}
		from := strings.LastIndexByte(block[:k], '\n')
		to := k + strings.IndexByte(block[k:], '\n')
		edited = block[:from] + block[to:]
	} else {
		edited = strings.Replace(block, "plen >= 25", "plen >= 24", 1)
	}
	if edited == block {
		return "", fmt.Errorf("edit left %s unchanged", d.routeMap())
	}
	return src[:i] + edited + src[j:], nil
}

// edits draws distinct peering sessions inside the scope, alternating
// preserving and violating edits.
func edits(size sizing, seed int64) []edit {
	rng := rand.New(rand.NewSource(seed))
	var out []edit
	for _, k := range rng.Perm(size.scopeEdges * size.wan.PeersPerEdge) {
		out = append(out, edit{edge: k / size.wan.PeersPerEdge, peer: k % size.wan.PeersPerEdge, violating: len(out)%2 == 1})
	}
	return out
}

// deltaSetup is what delta-cli prepares before its window: the baseline
// configuration and a result store one full run has filled.
type deltaSetup struct {
	dir, cfg, warm, src string
}

func setupDelta(e *env, dir string) (deltaSetup, error) {
	s := deltaSetup{dir: dir, cfg: filepath.Join(dir, "wan.cfg"), warm: filepath.Join(dir, "warm")}
	if err := lygen(e, s.cfg, ""); err != nil {
		return s, err
	}
	src, err := os.ReadFile(s.cfg)
	if err != nil {
		return s, err
	}
	s.src = string(src)
	x := expectation{exit: 0, problems: peeringProperties * e.size.scopeEdges}
	u, _, err := invoke(e, verifyArgs(e, s.cfg, "-routers", e.size.scope(), "-store", s.warm), x)
	if err != nil {
		return s, err
	}
	if u.Failed > 0 {
		return s, fmt.Errorf("warm-store run: %s", u.Note)
	}
	return s, nil
}

// copyStore gives an edit its own copy of the warm store.
func copyStore(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(from, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// deltaTruth is the ground truth of one edit run. The run is one operation:
// its exit code, the verdict of the update, and for a violating edit the
// failing property and where it is localised.
func (d edit) grade(e *env, c child, rep *cliReport) (failed int, note string) {
	wantExit := 0
	if d.violating {
		wantExit = 1
	}
	switch {
	case c.TimedOut || c.Exit != wantExit:
		return 1, fmt.Sprintf("exit %d (timed out: %v), want %d", c.Exit, c.TimedOut, wantExit)
	case !rep.delta.seen:
		return 1, "no delta update line"
	case rep.delta.ok == d.violating:
		return 1, fmt.Sprintf("update ok=%v after a %s edit", rep.delta.ok, map[bool]string{true: "violating", false: "preserving"}[d.violating])
	case rep.delta.dirty == 0 || rep.delta.dirty >= rep.delta.total:
		return 1, fmt.Sprintf("%d of %d checks dirty after a one-router edit", rep.delta.dirty, rep.delta.total)
	}
	if !d.violating {
		return 0, ""
	}
	at := fmt.Sprintf("%s -> %s", netgen.PeerNode(d.edge, d.peer), netgen.EdgeRouter(d.edge))
	bad := 0
	for _, p := range rep.problems {
		if p.ok {
			continue
		}
		bad++
		if !strings.HasPrefix(p.name, "no-bogons@") || !localised(p.at, at) {
			return 1, fmt.Sprintf("problem %s fails at %v, want no-bogons at %s", p.name, p.at, at)
		}
	}
	if bad != e.size.scopeEdges {
		return 1, fmt.Sprintf("%d failing problems, want %d", bad, e.size.scopeEdges)
	}
	return 0, ""
}

// delta-cli: incremental re-verification of one-router edits against a warm
// store, through lightyear -diff.
func measureDeltaCLI(e *env, seed int64, seconds float64) (*run, error) {
	t0 := time.Now()
	dir, err := e.tempDir("delta")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{}
	n := 0
	s, err := setups(e, r, func() (deltaSetup, error) {
		n++
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", n))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return deltaSetup{}, err
		}
		return setupDelta(e, sub)
	}, func(old deltaSetup) { os.RemoveAll(old.dir) })
	if err != nil {
		return nil, err
	}
	plan := edits(e.size, seed)
	floor := e.size.floor
	if e.smoke {
		plan = plan[1:2] // one edit, the violating kind
	}
	r.Units, r.WindowS, err = repeat(seconds, floor, func(i int) (unit, error) {
		d := plan[i%len(plan)]
		src, err := d.apply(s.src)
		if err != nil {
			return unit{}, err
		}
		cfg := filepath.Join(dir, fmt.Sprintf("edit-%d.cfg", i))
		store := filepath.Join(dir, fmt.Sprintf("store-%d", i))
		if err := os.WriteFile(cfg, []byte(src), 0o644); err != nil {
			return unit{}, err
		}
		if err := copyStore(s.warm, store); err != nil {
			return unit{}, err
		}
		rep := &cliReport{}
		c, err := runChild(e.bin("lightyear"),
			verifyArgs(e, cfg, "-diff", s.cfg, "-store", store, "-routers", e.size.scope()), rep.line)
		if err != nil {
			return unit{}, err
		}
		u := unit{Label: d.routeMap(), WallS: c.Wall.Seconds(), CPUS: c.CPU.Seconds(), RSSMB: c.RSSMB, Checks: rep.checks, Ops: 1}
		u.Failed, u.Note = d.grade(e, c, rep)
		os.RemoveAll(store)
		return u, nil
	})
	if err != nil {
		return nil, err
	}
	r.unitTotals()
	r.RunS = time.Since(t0).Seconds()
	return r, nil
}
