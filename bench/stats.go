package main

import (
	"math"
	"sort"
)

// dist summarises the repetitions of one metric on one workload. Value
// is the figure reported for it: the median, or the minimum for CPU-bound
// times (see workload.Lossy). It is printed with the median, the
// quartiles and n beside it.
type dist struct {
	Value  float64 `json:"value"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarise returns the median and quartiles of vals. Quartiles use the
// "exclusive" method of Python's statistics.quantiles(n=4), the one the
// acceptance procedure applies to the run-level values, clamped to the
// sample range for small n.
func summarise(vals []float64) dist {
	n := len(vals)
	if n == 0 {
		return dist{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := quantile(s, 0.5)
	return dist{Value: med, Min: s[0], Median: med, Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: n}
}

// byMin reports the minimum in place of the median.
func (d dist) byMin() dist {
	d.Value = d.Min
	return d
}

// quantile interpolates the p-quantile of sorted s at position p·(n+1),
// counted from 1.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// spread is the interquartile range as a share of the median.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}
