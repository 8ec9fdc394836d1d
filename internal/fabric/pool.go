package fabric

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lightyear/internal/telemetry"
)

// virtualNodes is the number of ring points per worker. 64 points keep the
// key→worker assignment within a few percent of uniform for small fleets
// while the ring stays tiny.
const virtualNodes = 64

// worker is the coordinator's view of one remote solver process.
type worker struct {
	addr string // "host:port"
	url  string // "http://host:port"

	// healthy is the circuit-breaker state: false after BreakerThreshold
	// consecutive transport failures (or a failed probe), true again after
	// a successful probe or solve. Unhealthy workers sort to the back of
	// the preference list but are never removed — a revived worker picks
	// its old shard back up, so cache locality survives restarts.
	healthy    atomic.Bool
	consecErrs atomic.Int64

	inflight atomic.Int64
	solved   atomic.Int64 // successful solve RPCs
	errors   atomic.Int64 // transport/HTTP failures
	retried  atomic.Int64 // solves that failed here and moved on
}

// WorkerStats is the exported per-worker counter snapshot surfaced by
// /v1/status on the coordinator.
type WorkerStats struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	InFlight int64  `json:"in_flight"`
	Solved   int64  `json:"solved"`
	Errors   int64  `json:"errors"`
	Retried  int64  `json:"retried"`
}

// Stats is the coordinator-side fabric snapshot.
type Stats struct {
	Workers   []WorkerStats `json:"workers"`
	Fallbacks int64         `json:"fallbacks"`
	Failovers int64         `json:"failovers"`
}

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash uint64
	w    *worker
}

// pool is a fixed set of workers sharing a consistent-hash ring, a health
// probe loop, and telemetry. Pools are shared across Remote instances with
// the same worker list (see getPool), so per-worker counters and breaker
// state are process-wide regardless of how many plan requests name the
// same fleet.
type pool struct {
	workers []*worker
	ring    []ringPoint
	client  *http.Client

	probeInterval time.Duration
	breakerAfter  int64

	fallbacks atomic.Int64
	failovers atomic.Int64

	// Telemetry handles (nil-safe when no recorder is installed).
	rpcSeconds *telemetry.HistogramVec
	retries    *telemetry.CounterVec
	failoverC  *telemetry.Counter
	fallbackC  *telemetry.CounterVec
	solvesC    *telemetry.CounterVec

	stop     chan struct{}
	stopOnce sync.Once
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func newPool(addrs []string, client *http.Client, rec *telemetry.Recorder, probeInterval time.Duration, breakerAfter int64) *pool {
	p := &pool{
		client:        client,
		probeInterval: probeInterval,
		breakerAfter:  breakerAfter,
		stop:          make(chan struct{}),
	}
	for _, a := range addrs {
		w := &worker{addr: a, url: "http://" + a}
		w.healthy.Store(true)
		p.workers = append(p.workers, w)
		for i := 0; i < virtualNodes; i++ {
			p.ring = append(p.ring, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", a, i)), w: w})
		}
	}
	sort.Slice(p.ring, func(i, j int) bool { return p.ring[i].hash < p.ring[j].hash })

	p.rpcSeconds = rec.Histogram("lightyear_fabric_rpc_seconds",
		"Remote solve RPC latency by worker.", telemetry.TimeBuckets, "worker")
	p.retries = rec.Counter("lightyear_fabric_retries_total",
		"Solve attempts that failed on a worker and moved on.", "worker")
	p.failoverC = rec.Counter("lightyear_fabric_failover_total",
		"Solves that completed on a non-primary worker.").With()
	p.fallbackC = rec.Counter("lightyear_fabric_fallback_total",
		"Solves served by the local fallback backend.", "reason")
	p.solvesC = rec.Counter("lightyear_fabric_solves_total",
		"Remote solves completed, by worker and verdict.", "worker", "status")
	rec.GaugeFunc("lightyear_fabric_inflight",
		"Solve RPCs currently in flight, by worker.", []string{"worker"}, func() []telemetry.Sample {
			out := make([]telemetry.Sample, 0, len(p.workers))
			for _, w := range p.workers {
				out = append(out, telemetry.Sample{Labels: []string{w.addr}, Value: float64(w.inflight.Load())})
			}
			return out
		})

	go p.probeLoop()
	return p
}

// pick returns the workers to try for a key, in preference order: the ring
// successor owns the key (so cache and dedup shard with the work), further
// ring successors are the retry path, and unhealthy workers sort to the
// back as a last resort.
func (p *pool) pick(key string) []*worker {
	if len(p.workers) == 0 {
		return nil
	}
	h := hash64(key)
	i := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= h })
	if i == len(p.ring) {
		i = 0
	}
	var healthy, suspect []*worker
	seen := make(map[*worker]bool, len(p.workers))
	for n := 0; n < len(p.ring) && len(seen) < len(p.workers); n++ {
		w := p.ring[(i+n)%len(p.ring)].w
		if seen[w] {
			continue
		}
		seen[w] = true
		if w.healthy.Load() {
			healthy = append(healthy, w)
		} else {
			suspect = append(suspect, w)
		}
	}
	return append(healthy, suspect...)
}

// noteSuccess resets the breaker after any successful exchange.
func (p *pool) noteSuccess(w *worker) {
	w.consecErrs.Store(0)
	w.healthy.Store(true)
}

// noteFailure trips the breaker after breakerAfter consecutive failures.
func (p *pool) noteFailure(w *worker) {
	w.errors.Add(1)
	if w.consecErrs.Add(1) >= p.breakerAfter {
		w.healthy.Store(false)
	}
}

// probeLoop polls /healthz on every worker: it both revives workers the
// breaker tripped (half-open probe) and demotes silently dead ones before
// a solve has to find out the hard way.
func (p *pool) probeLoop() {
	t := time.NewTicker(p.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		for _, w := range p.workers {
			req, err := http.NewRequest(http.MethodGet, w.url+"/healthz", nil)
			if err != nil {
				continue
			}
			resp, err := p.client.Do(req)
			if err != nil || resp.StatusCode != http.StatusOK {
				if resp != nil {
					resp.Body.Close()
				}
				w.healthy.Store(false)
				continue
			}
			resp.Body.Close()
			p.noteSuccess(w)
		}
	}
}

func (p *pool) close() { p.stopOnce.Do(func() { close(p.stop) }) }

// stats snapshots the pool's counters.
func (p *pool) stats() Stats {
	s := Stats{
		Fallbacks: p.fallbacks.Load(),
		Failovers: p.failovers.Load(),
	}
	for _, w := range p.workers {
		s.Workers = append(s.Workers, WorkerStats{
			Addr:     w.addr,
			Healthy:  w.healthy.Load(),
			InFlight: w.inflight.Load(),
			Solved:   w.solved.Load(),
			Errors:   w.errors.Load(),
			Retried:  w.retried.Load(),
		})
	}
	return s
}

// poolKey canonicalizes a worker list.
func poolKey(addrs []string) string {
	sorted := append([]string(nil), addrs...)
	sort.Strings(sorted)
	return strings.Join(sorted, ",")
}

// Shared pool registry: every Remote built from a Spec with the same worker
// set shares one pool, so breaker state and counters are process-wide and
// probe goroutines don't multiply with plan requests.
var (
	poolsMu sync.Mutex
	pools   = map[string]*pool{}
)

func getPool(addrs []string, client *http.Client, rec *telemetry.Recorder, probeInterval time.Duration, breakerAfter int64) *pool {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	key := poolKey(addrs)
	if p, ok := pools[key]; ok {
		return p
	}
	p := newPool(addrs, client, rec, probeInterval, breakerAfter)
	pools[key] = p
	return p
}

// Snapshot aggregates the stats of every shared pool in the process, merged
// per worker address. The coordinator's /v1/status reports it whenever any
// remote backend has been constructed.
func Snapshot() *Stats {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	if len(pools) == 0 {
		return nil
	}
	agg := &Stats{}
	byAddr := map[string]*WorkerStats{}
	for _, p := range pools {
		s := p.stats()
		agg.Fallbacks += s.Fallbacks
		agg.Failovers += s.Failovers
		for _, ws := range s.Workers {
			if prev, ok := byAddr[ws.Addr]; ok {
				prev.InFlight += ws.InFlight
				prev.Solved += ws.Solved
				prev.Errors += ws.Errors
				prev.Retried += ws.Retried
				prev.Healthy = prev.Healthy && ws.Healthy
			} else {
				cp := ws
				byAddr[ws.Addr] = &cp
			}
		}
	}
	addrs := make([]string, 0, len(byAddr))
	for a := range byAddr {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		agg.Workers = append(agg.Workers, *byAddr[a])
	}
	return agg
}
