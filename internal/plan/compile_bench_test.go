package plan

import (
	"encoding/json"
	"testing"
)

// BenchmarkCompileCost prices a 90-byte request for a 2,700-router corpus
// ring, everything a host does before admission can answer it: the
// member's DSL written and parsed back, its problems built, and the first
// Cost() indexing every route map.
func BenchmarkCompileCost(b *testing.B) {
	body := `{"network":{"corpus":"ring:1:size=2700,peers=2"},"properties":[{"name":"wan-peering"}]}`
	b.ReportAllocs()
	for b.Loop() {
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			b.Fatal(err)
		}
		c, err := Compile(req, nil)
		if err != nil {
			b.Fatal(err)
		}
		if c.Cost() == 0 {
			b.Fatal("zero cost")
		}
	}
}
