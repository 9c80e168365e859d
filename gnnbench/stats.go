package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs:
// the smallest sample with at least q of the samples at or below it.
// It sorts xs in place; an empty slice yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// median returns the middle value of xs, averaging the two middle values
// of an even-length slice. It sorts xs in place; an empty slice yields 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histQuantile returns the nearest-rank q-quantile of the values whose
// counts h holds, and the largest value with a non-zero count.
func histQuantile(h []int64, q float64) (quantile, maxV float64) {
	var total int64
	for v, c := range h {
		total += c
		if c > 0 {
			maxV = float64(v)
		}
	}
	if total == 0 {
		return 0, 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for v, c := range h {
		seen += c
		if seen >= rank {
			return float64(v), maxV
		}
	}
	return maxV, maxV
}
