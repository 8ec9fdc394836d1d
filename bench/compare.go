package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
)

// verdicts of the comparator for one (metric, workload) pair.
const (
	regressed  = "regressed"
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved" // the run-to-run spread is wider than the bound
)

// judge applies a metric's bound to the medians of two sets of runs. worse is
// how much of the base the new median lost (negative: gained).
func judge(m metricSpec, base, next summary) (verdict string, worse, spread float64) {
	if base.Median == 0 {
		// Only failed_share may be 0; any increase is a regression.
		if next.Median > 0 {
			return regressed, math.Inf(1), 0
		}
		return unchanged, 0, 0
	}
	worse = (next.Median - base.Median) / base.Median
	if m.Better == "higher" {
		worse = -worse
	}
	spread = math.Max(base.Spread, next.Spread)
	switch {
	case m.Name == failedShare.Name && worse > 0:
		return regressed, worse, spread
	case spread > m.Bound && m.Name != "setup_s":
		// setup_s is a few milliseconds on most workloads; like the driver,
		// the comparator holds it to its medians only.
		return unresolved, worse, spread
	case worse > m.Bound:
		return regressed, worse, spread
	case worse < -m.Bound:
		return improved, worse, spread
	}
	return unchanged, worse, spread
}

// compareResults prints one row per workload and metric, every ratio beside
// its base, and reports whether anything regressed or stayed unresolved.
func compareResults(sp *spec, a, b *results) (regressions, unresolvedRows int) {
	fmt.Printf("%-12s %-14s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "base", "new", "worse", "bound", "spread", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			fmt.Printf("%-12s missing from one side\n", w.name)
			regressions++
			continue
		}
		for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), failedShare) {
			sa, sb := wa.Summary[m.Name], wb.Summary[m.Name]
			v, worse, spread := judge(m, sa, sb)
			fmt.Printf("%-12s %-14s %14.6g %14.6g %+8.2f%% %6.0f%% %6.2f%%  %s (n=%d/%d, of base %.6g %s)\n",
				w.name, m.Name, sa.Median, sb.Median, 100*worse, 100*m.Bound, 100*spread, v, sa.N, sb.N, sa.Median, m.Unit)
			switch v {
			case regressed:
				regressions++
			case unresolved:
				unresolvedRows++
			}
		}
	}
	return regressions, unresolvedRows
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(sp *spec, oldPath, newPath string) error {
	a, err := readResults(oldPath)
	if err != nil {
		return err
	}
	b, err := readResults(newPath)
	if err != nil {
		return err
	}
	if n, _ := compareResults(sp, a, b); n > 0 {
		return fmt.Errorf("%d regressions", n)
	}
	return nil
}

// runAA measures the same commit twice, A and B taking turns round by round
// and in opposite workload orders, and compares the two. Everything the
// comparator flags here is noise, which is the point: the bounds must hold
// against it.
func runAA(e *env, sp *spec, seed int64, seconds float64, rounds int) error {
	a, b := newSet(e, sp, seed, seconds), newSet(e, sp, seed, seconds)
	for i := 0; i < rounds; i++ {
		first, second := a, b
		if i%2 == 1 {
			first, second = b, a
		}
		if err := first.round(i, false); err != nil {
			return err
		}
		if err := second.round(i, true); err != nil {
			return err
		}
	}
	fmt.Println("# A")
	ra, err := a.finish("-a")
	if err != nil {
		return err
	}
	fmt.Println("# B")
	rb, err := b.finish("-b")
	if err != nil {
		return err
	}
	fmt.Println("# A/A")
	regressions, open := compareResults(sp, ra, rb)
	switch {
	case ra.failed()+rb.failed() > 0:
		return errors.New("operations do not match the ground truth")
	case regressions > 0 || open > 0:
		return fmt.Errorf("the same commit disagrees with itself: %d regressed, %d unresolved", regressions, open)
	}
	return nil
}
