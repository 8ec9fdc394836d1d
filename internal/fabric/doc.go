// Package fabric is the distributed solver plane: a solver.Backend that
// ships obligations over HTTP to a pool of long-lived worker processes
// (cmd/lyworker), each running the existing local backend stack.
//
// The paper's modular decomposition makes every local check an independent
// SAT query, so the fleet needs no coordination beyond routing: the
// coordinator consistent-hashes on the check key, which means a given
// obligation always lands on the same shard — the worker-side engine's
// result cache and singleflight dedup keep firing across jobs, the same
// fate-sharing argument multipath transports make for flows that share
// state. Failure handling is layered so verdicts stay sound under worker
// loss:
//
//   - transport errors and 5xx responses trip a per-worker circuit breaker
//     after a few consecutive failures and the solve retries on the next
//     ring successor with bounded backoff (idempotent: solving is pure);
//   - a malformed 200 response is a typed WireError — the solve returns
//     StatusUnknown (never cached by the engine) rather than retrying a
//     worker that is lying;
//   - when every worker is down or the pool is empty, the solve falls back
//     to the local backend, so a dead fleet degrades to single-process
//     operation instead of failing jobs.
//
// Selection is wired through solver.ParseSpec ("remote:host1,host2") and
// solver.New via RegisterRemote — solver cannot import this package (it
// would cycle), so the factory is installed from init here and any binary
// importing fabric gains the backend.
//
// # Running a solver fleet
//
// Workers are plain processes with no shared state; start as many as the
// checks need, each deciding obligations with its own local backend:
//
//	lyworker -listen :9101 &
//	lyworker -listen :9102 &
//
// Any coordinator binary then selects the fleet with the remote solver
// spec — one flag, nothing else changes:
//
//	lightyear -config net.cfg -solver remote:localhost:9101,localhost:9102
//	lyserve   -listen :8080   -solver remote:localhost:9101,localhost:9102
//
// Observability is two-sided. Each worker self-reports its moving counters:
//
//	curl -s localhost:9101/v1/status
//	  => {"worker":":9101","backend":"native","in_flight":2,
//	      "solved":412,"failed":0,"unknown":3,"rejected":0,...}
//
// and the coordinator aggregates the fleet view — per-worker solve/error/
// retry counters, breaker health, failover and fallback totals — under the
// "fabric" section of lyserve's /v1/status, with rpc latency histograms and
// in-flight gauges on /metrics and an rpc child span per remote solve in
// /v1/traces. Killing a worker mid-run flips its breaker
// after a few failed solves: its keys re-shard to ring successors, the
// probe loop half-opens the breaker when the worker returns, and the keys
// shard back. Verdicts are unaffected either way — that is the fabric's
// contract, exercised end to end by the shard smoke job in CI; the
// repository benchmark's fabric.* layer metrics measure the wire codec and
// one loopback RPC against a native solve.
package fabric
