package config_test

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lightyear/internal/config"
	"lightyear/internal/corpus"
	"lightyear/internal/netgen"
)

// errLine is the line an error names, when it names one.
var errLine = regexp.MustCompile(`^config: line (-?\d+):`)

// FuzzParse holds the parser to three rules on any text: it never panics,
// an error that names a line names one of the input's, and a text it
// accepts parses again to a network with the same fingerprint. The seeds
// are the generators' DSL (Figure 1, a small WAN, two corpus members) and
// the inputs TestParseErrors refuses.
func FuzzParse(f *testing.F) {
	f.Add(netgen.Fig1DSL(netgen.Fig1Options{}))
	f.Add(netgen.WANDSL(netgen.WANParams{Regions: 2, RoutersPerRegion: 1, EdgeRouters: 1, DCsPerRegion: 1, PeersPerEdge: 1}, netgen.WANBugs{}))
	for _, ref := range []string{"ring:1:size=3", "tree:2:depth=1,fanout=2,bug=no-bogons"} {
		m, err := corpus.Parse(ref)
		if err != nil {
			f.Fatal(err)
		}
		src, err := m.DSL()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, tc := range badConfigs {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := config.Parse(src)
		if err != nil {
			if m := errLine.FindStringSubmatch(err.Error()); m != nil {
				line, _ := strconv.Atoi(m[1])
				if lines := strings.Count(src, "\n") + 1; line < 1 || line > lines {
					t.Fatalf("error names line %d of %d: %v", line, lines, err)
				}
			}
			return
		}
		again, err := config.Parse(src)
		if err != nil {
			t.Fatalf("accepted once, refused again: %v", err)
		}
		if n.Fingerprint() != again.Fingerprint() {
			t.Fatal("the same text parsed to networks with different fingerprints")
		}
	})
}
