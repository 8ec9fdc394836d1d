package core

import (
	"context"
	"strings"
	"testing"

	"lightyear/internal/spec"
	"lightyear/internal/topology"
)

// TestSolvePanicBecomesUnknown: a defect in one obligation — here a filter
// obligation missing its post-condition, which encoding dereferences — ends
// that check Unknown with the panic in its note instead of killing the
// process. (A nil route map is not such a defect: it encodes as permit-all.)
func TestSolvePanicBecomesUnknown(t *testing.T) {
	u := spec.NewUniverse()
	ob := &Obligation{Kind: ImportCheck, Loc: AtEdge(topology.Edge{From: "A", To: "B"}),
		filter: &filterObligation{u: u, pre: &predicate{pred: spec.True()}, importSide: true}}
	r := ob.Solve(context.Background(), SolveConfig{})
	if r.Status != StatusUnknown || r.OK {
		t.Fatalf("status %v ok=%v, want unknown", r.Status, r.OK)
	}
	if r.Counterexample == nil || !strings.Contains(r.Counterexample.Note, "solve panicked") {
		t.Fatalf("note does not name the panic: %+v", r.Counterexample)
	}
	if r.Kind != ImportCheck || r.Loc != ob.Loc || r.Backend != "native" {
		t.Fatalf("result lost the obligation's identity: %+v", r)
	}
}
