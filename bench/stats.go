package main

import (
	"math"
	"sort"
)

// sample summarises repeated measurements of one quantity: the benchmark
// reports timings as a median with the quartiles, the extremes and the
// sample count.
type sample struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarise(xs []float64) sample {
	if len(xs) == 0 {
		return sample{}
	}
	s := sorted(xs)
	return sample{Median: medianSorted(s), Q1: percentile(s, 25), Q3: percentile(s, 75), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice. An even count averages the two
// middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return medianSorted(sorted(xs))
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p percent of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// geomean of strictly positive values; 0 for an empty slice.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	l := 0.0
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}
