package main

import (
	"math"
	"sort"
)

// summary is how every timing metric is reported: the median over blocks
// with its quartiles and the sample count beside it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// percentile is the nearest-rank percentile of xs (p in (0,100]): the
// smallest sample with at least p% of the population at or below it.
// xs must be sorted ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentile is the highest whole percentile, at most 99, that still
// has at least ten samples beyond it — the only tail a sample of size n
// can state. It returns 0 when n cannot support even a median this way
// (n < 20).
func tailPercentile(n int) float64 {
	if n < 20 {
		return 0
	}
	p := math.Floor(100 * float64(n-10) / float64(n))
	if p > 99 {
		p = 99
	}
	return p
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summarize returns the median and quartiles of xs. Quartiles use the
// same rule as Python's statistics.quantiles(xs, n=4) (exclusive method),
// so spreads computed here match the ones an outside checker computes.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sortedCopy(xs)
	if len(s) == 1 {
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	q := func(k int) float64 {
		// Position k·(m+1)/4 on a 1-based axis, linear between the two
		// neighbours (extrapolating past the ends for tiny samples, as the
		// Python rule does).
		m := len(s)
		j := k * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(k*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), N: len(s)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
