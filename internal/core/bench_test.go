package core_test

import (
	"runtime"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/netgen"
	"lightyear/internal/smt"
)

// BenchmarkSafetyChecksWAN enumerates the whole peering sweep of the
// benchmark's 5-region WAN — 286 problems, 404,118 checks — per iteration,
// and reports what one check costs to generate and key: the repository
// benchmark's core.enumerate_us_per_check and _allocs_per_check, at
// `go test -bench` granularity.
func BenchmarkSafetyChecksWAN(b *testing.B) {
	n := netgen.WAN(benchWAN, netgen.WANBugs{})
	suite, _ := netgen.Lookup("wan-peering")
	problems := suite.Build(n, netgen.SuiteParams{Regions: benchWAN.Regions})
	var before, after runtime.MemStats
	checks := 0
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range problems {
			checks += len(p.Safety.Checks(core.Options{}))
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(checks), "ns/check")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(checks), "allocs/check")
}

// encodeSink keeps BenchmarkEncodeWAN's encodings live.
var encodeSink *smt.Term

// BenchmarkEncodeWAN encodes the unique symbolic obligations of the
// benchmark WAN's peering sweep (the missing-bogon variant, so failing
// checks are among them), one per iteration, each into a fresh context, and
// reports what one Encode costs: the repository benchmark's
// core.encode_us_per_ob and core.encode_allocs_per_ob, at `go test -bench`
// granularity. Context creation is kept out of the timed section.
func BenchmarkEncodeWAN(b *testing.B) {
	n := netgen.WAN(benchWAN, netgen.WANBugs{MissingBogonFilter: true})
	suite, _ := netgen.Lookup("wan-peering")
	seen := map[string]bool{}
	var obs []*core.Obligation
	for _, p := range suite.Build(n, netgen.SuiteParams{Regions: benchWAN.Regions}) {
		for _, c := range p.Safety.Checks(core.Options{}) {
			if ob := c.Obligation(); !seen[c.Key()] && !ob.Concrete() {
				seen[c.Key()] = true
				obs = append(obs, ob)
			}
		}
	}
	const batch = 256
	ctxs := make([]*smt.Context, batch)
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	var allocs uint64
	b.ResetTimer()
	for done := 0; done < b.N; {
		k := min(batch, b.N-done)
		b.StopTimer()
		for j := range k {
			ctxs[j] = smt.NewContext()
		}
		m0 := mallocs()
		b.StartTimer()
		for j := range k {
			encodeSink = obs[(done+j)%len(obs)].Encode(ctxs[j])
		}
		b.StopTimer()
		allocs += mallocs() - m0
		done += k
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/ob")
	b.ReportMetric(float64(allocs)/float64(b.N), "allocs/ob")
}
