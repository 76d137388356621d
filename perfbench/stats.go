package main

import "sort"

// tailLadder lists, in per-mille and highest first, the percentiles
// latency_tail_ms may report.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// minTailAbove is the number of samples that must lie above the reported
// tail percentile.
const minTailAbove = 10

// nearestRank returns the 1-based nearest-rank index of the pm per-mille
// percentile of n samples: the smallest rank r with r/n >= pm/1000.
// Integer arithmetic keeps 0.9*100 from rounding up to rank 91.
func nearestRank(n, pm int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPermille returns the highest ladder percentile (per mille) that
// leaves at least minAbove of n samples strictly above its nearest-rank
// position, or 1000 (the maximum) when n is too small for any of them.
func tailPermille(n, minAbove int) int {
	for _, pm := range tailLadder {
		if n-nearestRank(n, pm) >= minAbove {
			return pm
		}
	}
	return 1000
}

// tail is a latency tail read by the rule above.
type tail struct {
	Value    float64 // the sample at the percentile's nearest rank
	Permille int     // the percentile, per mille (1000 = maximum)
	Samples  int     // total samples
	Above    int     // samples strictly above the reported rank
}

// tailOf applies the tail rule to xs (any order).
func tailOf(xs []float64) tail {
	if len(xs) == 0 {
		return tail{}
	}
	s := sorted(xs)
	pm := tailPermille(len(s), minTailAbove)
	r := nearestRank(len(s), pm)
	return tail{Value: s[r-1], Permille: pm, Samples: len(s), Above: len(s) - r}
}

// median returns the median of xs (any order), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
