package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v exactly as
// Python's statistics.quantiles(v, n=4) does (exclusive method, with its
// extrapolation past the ends of short samples), so the spreads printed
// here are the spreads the acceptance rule computes. Fewer than two
// values have no spread: both quartiles are the value.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		return median(v), median(v)
	}
	s := sorted(v)
	ld := len(s)
	at := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the p-th percentile (0 ≤ p ≤ 1) of an ascending
// slice by nearest rank.
func percentile(ascending []float64, p float64) float64 {
	if len(ascending) == 0 {
		return math.NaN()
	}
	return ascending[int(p*float64(len(ascending)-1))]
}

// midMean returns the mean of the central tenth of an ascending slice,
// from the 45th to the 55th percentile: the median for samples that are
// whole nanoseconds and tie by the thousand, where the middle value
// alone would read the same in every run.
func midMean(ascending []float64) float64 {
	if len(ascending) == 0 {
		return math.NaN()
	}
	lo := int(0.45 * float64(len(ascending)))
	band := ascending[lo:max(lo+1, int(0.55*float64(len(ascending))))]
	var sum float64
	for _, v := range band {
		sum += v
	}
	return sum / float64(len(band))
}
