package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"lightyear/internal/corpus"
)

// request is one serve-mixed request and its ground truth, which comes from
// how the corpus member was built (corpus.Member.Plant), never from the
// verifier.
type request struct {
	ref   string
	truth *corpus.GroundTruth // nil: a clean member, every property holds
}

// requestStream is the seeded traffic mix. Its shape is fixed so that every
// seed asks for the same blend of work: requests come in blocks holding one
// new member of every family plus a repeat of an earlier member for every
// third family (a quarter of all requests, the families taking turns), and
// two of every five new members carry a planted bug. The seed draws what is
// left: the order inside a block, each member's own seed, which bug, and
// which earlier member is repeated.
type requestStream struct {
	mu       sync.Mutex
	rng      *rand.Rand
	size     sizing
	queue    []request
	blocks   int
	members  int
	byFamily [][]request
}

func newRequestStream(size sizing, seed int64) *requestStream {
	return &requestStream{rng: rand.New(rand.NewSource(seed)), size: size, byFamily: make([][]request, len(size.families))}
}

func (s *requestStream) next() (request, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		if err := s.fill(); err != nil {
			return request{}, err
		}
	}
	req := s.queue[0]
	s.queue = s.queue[1:]
	return req, nil
}

// fill builds the next block.
func (s *requestStream) fill() error {
	families := len(s.size.families)
	repeats := families / 3
	for i := 0; i < repeats; i++ {
		if earlier := s.byFamily[(s.blocks*repeats+i)%families]; len(earlier) > 0 {
			s.queue = append(s.queue, earlier[s.rng.Intn(len(earlier))])
		}
	}
	for f, template := range s.size.families {
		ref := fmt.Sprintf(template, s.rng.Intn(1000))
		if s.members*2%5 < 2 {
			bugs := corpus.BugNames()
			ref += ",bug=" + bugs[s.rng.Intn(len(bugs))] // every template carries a knob already
		}
		s.members++
		m, err := corpus.Parse(ref)
		if err != nil {
			return fmt.Errorf("corpus reference %q: %w", ref, err)
		}
		truth, err := m.Plant()
		if err != nil {
			return fmt.Errorf("corpus reference %q: %w", ref, err)
		}
		req := request{ref: ref, truth: truth}
		s.byFamily[f] = append(s.byFamily[f], req)
		s.queue = append(s.queue, req)
	}
	s.rng.Shuffle(len(s.queue), func(i, j int) { s.queue[i], s.queue[j] = s.queue[j], s.queue[i] })
	s.blocks++
	return nil
}

// reply is what one request cost and returned.
type reply struct {
	unit
	AcceptS   float64 // POST sent to 202 read
	Bytes     int     // NDJSON bytes read to the plan event
	Events    int
	Rejected  bool // 429
	Truncated int  // events the server evicted before they were read
}

// planEvent is the part of a plan.Event the harness grades.
type planEvent struct {
	Type    string `json:"type"`
	Problem string `json:"problem"`
	OK      *bool  `json:"ok"`
	Dropped int    `json:"dropped"`
	Stats   *struct {
		Checks int `json:"checks"`
	} `json:"stats"`
}

const requestTimeout = 30 * time.Second

// gradeMember compares a corpus member's verdict with its ground truth: a
// clean member verifies; a planted bug fails the plan, fails at least one
// problem, and fails only problems of the planted property. It returns the
// mismatch, or "". partial says some problem verdicts were not seen.
func gradeMember(truth *corpus.GroundTruth, ok bool, failing []string, partial bool) string {
	switch {
	case truth == nil && (!ok || len(failing) > 0):
		return fmt.Sprintf("clean member: ok=%v, failing %v", ok, failing)
	case truth == nil:
		return ""
	case ok:
		return fmt.Sprintf("planted %s not detected", truth.Property)
	case len(failing) == 0 && !partial:
		return fmt.Sprintf("planted %s: the plan failed but no problem did", truth.Property)
	}
	for _, name := range failing {
		if !strings.HasPrefix(name, truth.Property+"@") {
			return fmt.Sprintf("planted %s but %s fails", truth.Property, name)
		}
	}
	return ""
}

// send posts one verification request and reads its event stream to the plan
// event, grading the verdict against the member's ground truth. A transport
// error, a non-2xx answer or a timeout is a failed operation, not an error
// of the harness.
func send(client *http.Client, base string, req request) (out reply) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	out = reply{unit: unit{Label: req.ref, Ops: 1}}
	fail := func(format string, a ...any) reply {
		out.Failed, out.Note = 1, fmt.Sprintf("%s: ", req.ref)+fmt.Sprintf(format, a...)
		return out
	}
	body, _ := json.Marshal(map[string]any{
		"network":    map[string]string{"corpus": req.ref},
		"properties": []map[string]string{{"name": corpus.PropertySuite}},
	})
	t0 := time.Now()
	defer func() { out.WallS = time.Since(t0).Seconds() }()
	post, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v2/verify", bytes.NewReader(body))
	if err != nil {
		return fail("%v", err)
	}
	resp, err := client.Do(post)
	if err != nil {
		return fail("POST: %v", err)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	out.AcceptS = time.Since(t0).Seconds()
	if resp.StatusCode != http.StatusAccepted || err != nil || accepted.ID == "" {
		out.Rejected = resp.StatusCode == http.StatusTooManyRequests
		return fail("POST answered %d (%v)", resp.StatusCode, err)
	}
	get, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v2/jobs/"+accepted.ID+"/events", nil)
	if err != nil {
		return fail("%v", err)
	}
	stream, err := client.Do(get)
	if err != nil {
		return fail("GET events: %v", err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return fail("GET events answered %d", stream.StatusCode)
	}

	var failing []string
	var verdict *bool
	r := bufio.NewReaderSize(stream.Body, 256<<10)
	for verdict == nil {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return fail("event stream ended before the plan event: %v", err)
		}
		out.Bytes += len(line)
		out.Events++
		if bytes.HasPrefix(line, []byte(`{"type":"check"`)) || bytes.HasPrefix(line, []byte(`{"type":"start"`)) {
			continue
		}
		var ev planEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fail("bad event: %v", err)
		}
		switch ev.Type {
		case "problem":
			if ev.OK != nil && !*ev.OK {
				failing = append(failing, ev.Problem)
			}
		case "property":
			if ev.Stats != nil {
				out.Checks += ev.Stats.Checks
			}
		case "truncated":
			out.Truncated += ev.Dropped
		case "plan":
			verdict = ev.OK
			if verdict == nil {
				return fail("plan event without a verdict")
			}
		}
	}

	if note := gradeMember(req.truth, *verdict, failing, out.Truncated > 0); note != "" {
		return fail("%s", note)
	}
	return out
}

// serve-mixed: request-to-verdict on the service path. Closed loop, two
// clients: the callers are CI pipelines that wait for their verdict before
// they send the next change.
func measureServeMixed(e *env, seed int64, seconds float64) (*run, error) {
	t0 := time.Now()
	r := &run{}
	srv, err := setups(e, r, func() (*server, error) { return startServer(e.bin("lyserve")) }, (*server).stop)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	stream := newRequestStream(e.size, seed)

	for i := 0; i < e.size.serveWarmup; i++ {
		req, err := stream.next()
		if err != nil {
			return nil, err
		}
		if rep := send(client, srv.base, req); rep.Failed > 0 {
			return nil, fmt.Errorf("warm-up request: %s", rep.Note)
		}
	}

	pid := srv.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	const clients = 2
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		issued   int
		failed   int
	)
	start := time.Now()
	take := func() bool {
		mu.Lock()
		defer mu.Unlock()
		// A server that keeps failing is not worth the rest of the window.
		if firstErr != nil || failed >= 5 || (issued >= e.size.serveFloor && time.Since(start).Seconds() >= seconds) {
			return false
		}
		issued++
		return true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for take() {
				req, err := stream.next()
				var rep reply
				if err == nil {
					rep = send(client, srv.base, req)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				} else if err == nil {
					r.Units = append(r.Units, rep.unit)
					failed += rep.Failed
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	r.WindowS = time.Since(start).Seconds()
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	r.CPUS = (cpu1 - cpu0).Seconds() / float64(len(r.Units))
	if r.PeakRSSMB, err = procPeakRSSMB(fmt.Sprint(pid)); err != nil {
		return nil, err
	}
	r.RunS = time.Since(t0).Seconds()
	return r, nil
}
