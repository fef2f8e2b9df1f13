package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// samples in microseconds, and how many samples lie beyond it.
func percentile(sorted samples, p float64) (us float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return float64(sorted[rank-1]) / 1e3, len(sorted) - rank
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer, and the value is one outlier's, not the distribution's.
const minBeyond = 10

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
