package main

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lightyear/internal/plan"
)

// compileBound is how long compiling and costing one plan body may take:
// both run before the request is admitted, so no admission limit bounds them.
const compileBound = time.Second

// FuzzPlanRequest drives the path every plan body takes before admission —
// the strict decode (plan.Decode), the HTTP surface's config_path refusal,
// plan.Request.Validate, then
// plan.Compile and the admission cost — on arbitrary bytes. Nothing may
// panic, a body Validate refuses is a request error (a 400), and compiling
// and costing a plan takes at most compileBound. Compile runs before the
// request is admitted, so generator and corpus sources are sized from their
// parameters first (netgen.MaxSourceSize): a short body cannot name a
// network too large to build.
//
//	go test ./cmd/lyserve -run '^$' -fuzz FuzzPlanRequest -fuzztime 10s
func FuzzPlanRequest(f *testing.F) {
	for _, seed := range []string{
		fig1Plan,
		bigPlan,
		`{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-liveness"}]}`,
		`{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "sat-stress"}], "options": {"solver": {"backend": "portfolio"}}}`,
		`{"network": {"generator": {"kind": "fullmesh", "size": 6}}, "properties": [{"name": "fullmesh"}]}`,
		`{"network": {"generator": {"kind": "fullmesh", "size": 1000}}, "properties": [{"name": "fullmesh"}]}`,
		`{"network": {"generator": {"kind": "wan", "regions": 3, "routers_per_region": 2, "edge_routers": 2, "dcs_per_region": 1, "peers_per_edge": 2}}, "properties": [{"name": "wan-peering"}]}`,
		`{"network": {"generator": {"kind": "wan", "regions": 2, "routers_per_region": 2, "edge_routers": 1, "dcs_per_region": 1, "peers_per_edge": 1}},
		  "properties": [{"name": "wan-peering", "routers": ["wan-r0-0"]}, {"name": "wan-ip-reuse", "regions": [1]}], "options": {"wan_regions": 2, "results": "all"}}`,
		`{"network": {"generator": {"kind": "wan", "regions": 2, "routers_per_region": 1, "edge_routers": 1, "peers_per_edge": 2}},
		  "properties": [{"name": "wan-peering", "routers": ["edge-0"]}, {"name": "sat-stress"}], "options": {"wan_regions": 2, "solver": {"backend": "tiered", "budget": 50}}}`,
		`{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "sat-stress"}], "options": {"solver": {"backend": "remote", "workers": ["127.0.0.1:1"]}}}`,
		`{"network": {"corpus": "ring:3:size=4,bug=no-class-e"}, "properties": [{"name": "wan-peering"}], "options": {"tenant": "acme"}}`,
		`{"network": {"corpus": "tree:1:depth=30,fanout=10"}, "properties": [{"name": "wan-peering"}]}`,
		`{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "wan-ip-liveness"}, {"name": "wan-ip-reuse"}], "options": {"wan_regions": 16384}}`,
		`{"network": {"config": "node R1 { as 65000 role edge }\nexternal X1 { as 100 role peer }\npeering X1 R1\n"}, "properties": [{"name": "wan-peering"}]}`,
		`{"network": {"baseline": "session-99"}, "properties": [{"name": "fig1-no-transit"}]}`,
		`{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit", "routers": ["bogus"]}]}`,
		`{"network": {"generator": {"kind": "fig1"}}}`,
		`{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit"}], "options": {"store": "/tmp/x", "workers": 4}}`,
		`{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit", "router": ["R2"]}]}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req plan.Request
		if plan.Decode(bytes.NewReader(body), &req) != nil {
			return // decodeBody answers 400
		}
		// Both plan endpoints refuse a file path before compiling
		// (rejectConfigPath).
		if req.Network.ConfigPath != "" {
			return
		}
		if err := req.Validate(); err != nil {
			var reqErr *plan.RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("Validate refused with %T, not a request error: %v", err, err)
			}
			return
		}
		start := time.Now()
		c, err := plan.Compile(req, nil)
		if err != nil {
			return
		}
		cost := c.Cost()
		if took := time.Since(start); took > compileBound {
			t.Fatalf("compiling and costing the plan took %v, over %v before admission", took, compileBound)
		}
		if cost < 0 {
			t.Fatalf("negative admission cost %d", cost)
		}
	})
}
