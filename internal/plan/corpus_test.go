package plan

import (
	"errors"
	"strings"
	"testing"

	"lightyear/internal/corpus"
)

// The corpus network source: a member reference is a first-class plan
// source, validated up front (typed RequestError), safe on every host (no
// filesystem contract), and a planted bug surfaces through a normal plan
// run as failing problems of exactly the planted property.

func TestCorpusSourceValidation(t *testing.T) {
	props := []Property{{Name: corpus.PropertySuite}}
	cases := []struct {
		name string
		req  Request
		want string // error substring, "" = valid
	}{
		{"ok", Request{Network: Network{Corpus: "ring:1:size=4"}, Properties: props}, ""},
		{"bad-ref", Request{Network: Network{Corpus: "nosuch:1"}, Properties: props},
			"unknown family"},
		{"two-sources", Request{Network: Network{Corpus: "ring:1", Config: "x"}, Properties: props},
			"exactly one network source"},
	}
	for _, c := range cases {
		err := c.req.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
		if c.want != "" {
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Errorf("%s: %v (%T) should be a RequestError", c.name, err, err)
			}
		}
	}
}

func TestCorpusSourceMaterializes(t *testing.T) {
	n, regions, err := Network{Corpus: "ring:1:size=4,regions=2"}.Materialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Routers()) != 4 {
		t.Fatalf("got %d routers, want 4", len(n.Routers()))
	}
	if regions != 0 {
		t.Fatalf("corpus source should not force a region count, got %d", regions)
	}
	// Same reference, same network — the plan source inherits corpus
	// reproducibility.
	again, _, err := Network{Corpus: "ring:1:size=4,regions=2"}.Materialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Fingerprint() != again.Fingerprint() {
		t.Fatal("corpus source is not reproducible across Materialize calls")
	}
}

func TestCorpusPlanDetectsPlantedBug(t *testing.T) {
	res := execute(t, Request{
		Network:    Network{Corpus: "ring:1:size=4,bug=no-class-e"},
		Properties: []Property{{Name: corpus.PropertySuite}},
	}, "", 0)
	if res.OK || res.Failures == 0 {
		t.Fatalf("planted bug not detected: ok=%v failures=%d", res.OK, res.Failures)
	}
	for _, pr := range res.Properties {
		for _, prob := range pr.Problems {
			if !prob.OK && !strings.HasPrefix(prob.Name, "no-class-e@") {
				t.Errorf("unexpected failing problem %s (planted no-class-e)", prob.Name)
			}
		}
	}
}
