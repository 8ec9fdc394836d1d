package main

import (
	"math"
	"sort"
)

// summary describes one set of raw samples exactly: no histogram buckets,
// no interpolation beyond the quartile rule below.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median, the run-to-run noise the comparator weighs
	// a difference against; 0 when N < 2.
	Spread float64 `json:"spread"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the exclusive
// method), so a spread computed here equals the one the driver computes from
// the same values. It needs two samples; with fewer both quartiles are the
// sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	q1, q3 := quartiles(s)
	out := summary{N: len(s), Median: median(s), Min: s[0], Q1: q1, Q3: q3}
	if out.Median != 0 && len(s) >= 2 {
		out.Spread = math.Abs((q3 - q1) / out.Median)
	}
	return out
}

// p95MinSamples is the sample count from which a p95 is quoted: 200 samples
// leave ten beyond it.
const p95MinSamples = 200

// tail returns the highest percentile that has at least ten samples beyond
// it: the nearest-rank p95 from p95MinSamples samples on, the median below
// that (no percentile above the median qualifies on a handful of samples).
func tail(xs []float64) float64 {
	if len(xs) < p95MinSamples {
		return median(xs)
	}
	s := sorted(xs)
	return s[int(math.Ceil(0.95*float64(len(s))))-1]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
