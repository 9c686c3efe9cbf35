package main

import (
	"math"
	"sort"
)

// sample is a set of latency observations in milliseconds.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median is the middle observation (mean of the two middle ones for an
// even count), 0 when empty.
func (s sample) median() float64 {
	if len(s) == 0 {
		return 0
	}
	x := s.sorted()
	m := len(x) / 2
	if len(x)%2 == 1 {
		return x[m]
	}
	return (x[m-1] + x[m]) / 2
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// minTailSamples is the least sample count for which a tail is reported:
// below it the highest percentile with ten samples beyond it would sit
// near the median and say nothing about the tail.
const minTailSamples = 40

// tail reports the highest percentile that has at least ten samples
// beyond it, and that percentile: the 11th largest observation of n is
// percentile (n-10)/n. ok is false below minTailSamples.
func (s sample) tail() (value, pct float64, ok bool) {
	if len(s) < minTailSamples {
		return 0, 0, false
	}
	x := s.sorted()
	i := len(x) - 11
	return x[i], 100 * float64(len(x)-10) / float64(len(x)), true
}

// geomean of positive ratios (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}
