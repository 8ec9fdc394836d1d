package core_test

import (
	"runtime"
	"testing"

	"lightyear/internal/core"
	"lightyear/internal/netgen"
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
