package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"lightyear/internal/plan"
)

// FuzzPlanRequest drives the path every plan body takes before admission —
// decode, the HTTP surface's refusals, plan.Request.Validate, then
// plan.Compile and the admission cost — on arbitrary bytes. Nothing may
// panic, and a body Validate refuses is a request error (a 400). Compile
// runs before the request is admitted, so generator and corpus sources are
// sized from their parameters first (netgen.MaxSourceSize): a short body
// cannot name a network too large to build.
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
		`{"network": {"corpus": "ring:3:size=4,bug=no-class-e"}, "properties": [{"name": "wan-peering"}], "options": {"tenant": "acme"}}`,
		`{"network": {"corpus": "tree:1:depth=30,fanout=10"}, "properties": [{"name": "wan-peering"}]}`,
		`{"network": {"config": "node R1 { as 65000 role edge }\nexternal X1 { as 100 role peer }\npeering X1 R1\n"}, "properties": [{"name": "wan-peering"}]}`,
		`{"network": {"baseline": "session-99"}, "properties": [{"name": "fig1-no-transit"}]}`,
		`{"network": {"generator": {"kind": "fig1"}}, "properties": [{"name": "fig1-no-transit", "routers": ["bogus"]}]}`,
		`{"network": {"generator": {"kind": "fig1"}}}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req plan.Request
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return // decodeBody answers 400
		}
		// Both plan endpoints refuse these before compiling: a file path
		// (rejectConfigPath) and a delta baseline (sessions pin their own).
		if req.Network.ConfigPath != "" || req.Options.Baseline != nil {
			return
		}
		if err := req.Validate(); err != nil {
			var reqErr *plan.RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("Validate refused with %T, not a request error: %v", err, err)
			}
			return
		}
		c, err := plan.Compile(req, nil)
		if err != nil {
			return
		}
		if cost := c.Cost(); cost < 0 {
			t.Fatalf("negative admission cost %d", cost)
		}
	})
}
