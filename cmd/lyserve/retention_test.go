package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lightyear/internal/delta"
	"lightyear/internal/engine"
	"lightyear/internal/netgen"
	"lightyear/internal/plan"
	"lightyear/internal/policy"
	"lightyear/internal/telemetry"
	"lightyear/internal/topology"
)

// What a finished job retains, and what it costs to tell subscribers.

// TestJobTableRetainsNoPassingChecks: two hundred sequential requests under
// default flags — a planted bug in one of every five — leave the job table
// holding, per problem, a summary plus the checks that did not pass; no
// passing per-check entry and no passing check event anywhere. /v1/status and
// /metrics report the retained count.
func TestJobTableRetainsNoPassingChecks(t *testing.T) {
	rec := telemetry.New(0)
	eng := engine.New(engine.Options{Workers: 2, Telemetry: rec})
	t.Cleanup(eng.Close)
	srv := newServer(eng)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	for i := 0; i < 200; i++ {
		ref := fmt.Sprintf("ring:%d:size=4", i%7)
		if i%5 == 0 {
			ref += ",bug=no-class-e"
		}
		_, accepted := postJSON(t, ts.URL+"/v2/verify",
			`{"network": {"corpus": "`+ref+`"}, "properties": [{"name": "wan-peering"}]}`)
		resp, err := http.Get(ts.URL + accepted["events_url"].(string))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) // to the plan event: the job is done
		resp.Body.Close()
	}

	srv.mu.Lock()
	jobs := make([]*serviceJob, 0, len(srv.jobs))
	for _, j := range srv.jobs {
		jobs = append(jobs, j)
	}
	srv.mu.Unlock()
	if len(jobs) != 200 {
		t.Fatalf("job table holds %d jobs, want all 200 inside -job-ttl", len(jobs))
	}
	failing, checks := 0, 0
	for _, j := range jobs {
		j.mu.Lock()
		for _, prop := range j.props {
			for _, ps := range prop.problems {
				if ps.report == nil {
					t.Fatalf("%s: finished problem %s has no report", j.id, ps.name)
				}
				checks += ps.report.NumChecks
				for _, c := range ps.report.Checks {
					if c.OK {
						t.Fatalf("%s: problem %s retains a passing check: %+v", j.id, ps.name, c)
					}
					if c.Desc == "" || c.Counterexample == nil {
						t.Fatalf("%s: retained failure lost its description or witness: %+v", j.id, c)
					}
					failing++
				}
			}
		}
		for _, ev := range j.events {
			if ev.Type == "check" && ev.OK != nil && *ev.OK {
				t.Fatalf("%s retains a passing check event: %+v", j.id, ev)
			}
		}
		for _, pr := range j.result.Properties {
			for _, p := range pr.Problems {
				if p.Report != nil {
					t.Fatalf("%s: the retained summary still holds problem %s's report", j.id, p.Name)
				}
			}
		}
		j.mu.Unlock()
	}
	if failing == 0 || failing*100 > checks {
		t.Fatalf("%d retained entries for %d checks: want the planted failures and nothing else", failing, checks)
	}

	_, status := getHealthJSON(t, ts.URL+"/v1/status")
	if got, _ := status["retained_check_results"].(float64); int(got) != failing {
		t.Fatalf("/v1/status retained_check_results = %v, want %d", status["retained_check_results"], failing)
	}
	var metrics bytes.Buffer
	if err := rec.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("lightyear_jobs_retained_check_results %d\n", failing); !strings.Contains(metrics.String(), want) {
		t.Fatalf("/metrics lacks %q", want)
	}
}

// TestJobProgressMonotoneWithoutPassingCheckEvents: progress comes from the
// start event, the occasional failing check, and the problem event's full
// count; it never moves backwards.
func TestJobProgressMonotoneWithoutPassingCheckEvents(t *testing.T) {
	j := &serviceJob{props: []*propertyState{{problems: []*problemState{{name: "p"}}}}}
	ok, bad := true, false
	seen := 0
	step := func(ev plan.Event, want int) {
		t.Helper()
		j.handleEvent(ev)
		ps := j.props[0].problems[0]
		if ps.completed < seen || ps.completed != want || ps.total != 40 {
			t.Fatalf("after %s: completed %d of %d (was %d), want %d of 40", ev.Type, ps.completed, ps.total, seen, want)
		}
		seen = ps.completed
	}
	step(plan.Event{Type: "start", Total: 40}, 0)
	step(plan.Event{Type: "check", Completed: 17, Total: 40, OK: &bad, Status: "fail"}, 17)
	step(plan.Event{Type: "check", Completed: 9, Total: 40, OK: &bad, Status: "fail"}, 17) // a late arrival
	step(plan.Event{Type: "problem", OK: &ok, Stats: &engine.JobStats{Checks: 40}}, 40)
}

// TestEventsWakeSubscribersWithoutPerEventChannels: an event makes no channel
// unless a subscriber asked to be woken, and one asked-for channel covers
// every event until it fires.
func TestEventsWakeSubscribersWithoutPerEventChannels(t *testing.T) {
	j := &serviceJob{props: []*propertyState{{problems: []*problemState{{}}}}, window: 4}
	for i := 0; i < 10; i++ {
		j.handleEvent(plan.Event{Type: "check", Completed: i})
	}
	if j.notify != nil {
		t.Fatal("events made a wake-up channel nobody waits on")
	}
	j.mu.Lock()
	woken := j.changed()
	if again := j.changed(); again != woken {
		t.Fatal("a second subscriber got a channel of its own")
	}
	j.mu.Unlock()
	select {
	case <-woken:
		t.Fatal("woken before anything changed")
	default:
	}
	j.handleEvent(plan.Event{Type: "check"})
	select {
	case <-woken:
	default:
		t.Fatal("the event did not wake the subscriber")
	}
	if j.notify != nil {
		t.Fatal("the fired channel was replaced before anyone asked")
	}
}

// TestFinishedJobDoesNotPinItsPlan: a finished job still in the table keeps
// the plan's network and route maps reachable neither through its retained
// reports and events nor through the engine's cache.
func TestFinishedJobDoesNotPinItsPlan(t *testing.T) {
	_, srv := newTestServerWithState(t)
	var collected atomic.Int32
	tracked := int32(1)
	launch := func() *serviceJob {
		c, err := plan.Compile(plan.Request{Network: plan.Network{Corpus: "ring:1:size=5,bug=no-class-e"},
			Properties: []plan.Property{{Name: "wan-peering"}}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(c.Network, func(*topology.Network) { collected.Add(1) })
		for _, e := range c.Network.Edges() {
			if m := c.Network.Import(e); m != nil {
				runtime.SetFinalizer(m, func(*policy.RouteMap) { collected.Add(1) })
				tracked++
			}
		}
		resv, err := srv.eng.Reserve(c.Tenant(), c.Cost())
		if err != nil {
			t.Fatal(err)
		}
		return srv.launchPlan(c, resv, nil)
	}
	j := launch()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		if done, _ := j.doneAt(); done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
	}
	for i := 0; i < 50 && collected.Load() < tracked; i++ {
		runtime.GC()
		time.Sleep(2 * time.Millisecond) // finalizers, and the run goroutine's exit
	}
	if srv.retainedCheckResults() == 0 || srv.eng.Stats().CacheLen == 0 {
		t.Fatal("the job retained no failure, or the cache no result: nothing could have pinned the plan")
	}
	if got := collected.Load(); got < tracked {
		t.Fatalf("%d of %d tracked objects (network, route maps) still reachable from a finished job", tracked-got, tracked)
	}
}

// TestSessionRunsRetainNoReports: a results=all session records each of its
// runs without the problems' reports — every check result, each pinning its
// obligation — and GET serves what it recorded: the JSON a report never
// entered.
func TestSessionRunsRetainNoReports(t *testing.T) {
	ts, srv := newTestServerWithState(t)
	gen := func(edgeRouters int) string {
		return fmt.Sprintf(`{"generator": {"kind": "wan", "regions": 2, "routers_per_region": 1,
			"edge_routers": %d, "dcs_per_region": 1, "peers_per_edge": 2}}`, edgeRouters)
	}
	resp, err := http.Post(ts.URL+"/v2/sessions", "application/json", strings.NewReader(`{"network": `+gen(1)+`,
		"properties": [{"name": "wan-peering"}], "options": {"results": "all"}}`))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	waitRunDone(t, ts, created.ID, 0)
	for _, edges := range []int{2, 1, 2} {
		waitRunDone(t, ts, created.ID, postUpdateV2(t, ts, created.ID, `{"network": `+gen(edges)+`}`))
	}

	resp, err = http.Get(ts.URL + "/v2/sessions/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Runs []struct {
			Result json.RawMessage `json:"result"`
		} `json:"runs"`
	}
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()

	srv.mu.Lock()
	sess := srv.sessions[created.ID]
	srv.mu.Unlock()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if len(sess.runs) != 4 || len(got.Runs) != 4 {
		t.Fatalf("%d runs recorded, %d served; want 4", len(sess.runs), len(got.Runs))
	}
	for i, run := range sess.runs {
		if run.status != "done" || run.result == nil || len(run.result.Problems) == 0 {
			t.Fatalf("run %d: %s, %+v", i, run.status, run.result)
		}
		for _, p := range run.result.Problems {
			if p.Report != nil {
				t.Fatalf("run %d: %s keeps its report of %d checks", i, p.Name, len(p.Report.Results))
			}
		}
		if want, _ := json.Marshal(run.result); !bytes.Equal(got.Runs[i].Result, want) {
			t.Errorf("run %d: GET serves\n%s\nthe recorded run encodes\n%s", i, got.Runs[i].Result, want)
		}
	}
}

// TestWithoutReportsEncodesAlike: dropping a run's reports changes nothing a
// response encodes, and leaves the run it copies whole.
func TestWithoutReportsEncodesAlike(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	suite, _ := netgen.Lookup("fig1-no-transit")
	res, err := delta.NewVerifier(eng, suite, netgen.SuiteParams{}).Baseline(netgen.Fig1(netgen.Fig1Options{OmitTransitTag: true}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Problems[0].Report == nil {
		t.Fatal("the run holds no report to drop")
	}
	before, _ := json.Marshal(res)
	stripped := withoutReports(res)
	after, _ := json.Marshal(stripped)
	if !bytes.Equal(before, after) || stripped.Problems[0].Report != nil || res.Problems[0].Report == nil {
		t.Fatalf("dropping reports changed the encoding or the original:\n%s\n%s", before, after)
	}
}
