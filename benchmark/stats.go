package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p <= 1, nearest rank) of the
// latencies of `attempted` requests, of which the ascending `sorted` ones
// succeeded. A failed request misses every latency limit, so failures rank
// as +Inf: a percentile that reaches into them is +Inf.
func percentile(sorted []float64, attempted int, p float64) float64 {
	if attempted == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(attempted)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		return math.Inf(1)
	}
	return sorted[rank-1]
}

// highestPercentile returns the highest percentile of n samples that still
// has at least ten samples beyond it (0 when no percentile qualifies): the
// furthest into the tail the sample can speak for.
func highestPercentile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return float64(n-10) / float64(n)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (exclusive method), which is what
// the acceptance driver computes spreads from. It needs two values or more.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value (mean of the middle two for even counts).
func median(values []float64) float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise figure every bound in BENCHMARK.json is set against.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
