package main

import (
	"math"
	"sort"
)

// median returns the median of vs (mean of the two middle values for an
// even count); 0 for an empty slice. vs is sorted in place.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported tail
// percentile: with fewer, the "percentile" is the story of a handful of
// requests and does not repeat from run to run.
const minBeyond = 10

// tailPercentile returns the p-quantile (nearest rank) of vs — or, when
// fewer than minBeyond samples lie beyond it, the highest percentile
// that does have minBeyond samples beyond it. It reports the percentile
// actually used. Failed requests enter as +Inf, so they count as
// missing the percentile rather than vanishing from it. vs is sorted in
// place; fewer than minBeyond+1 samples degrade to the minimum.
func tailPercentile(vs []float64, p float64) (value, usedP float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(vs)
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if beyond := n - 1 - k; beyond < minBeyond {
		k = n - 1 - minBeyond
		if k < 0 {
			k = 0
		}
	}
	return vs[k], float64(k+1) / float64(n)
}

// quartiles returns the first, second and third quartile of vs with the
// method of Python's statistics.quantiles(vs, n=4) (exclusive), which
// is what judges the benchmark's run-to-run spread. vs is sorted in
// place. Python needs at least two values; a single value is returned
// as all three quartiles here, and none as zeros.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	sort.Float64s(vs)
	m := len(vs)
	if m < 2 {
		if m == 1 {
			return vs[0], vs[0], vs[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (vs[j-1]*(4-delta) + vs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
