package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// summary is one metric's value with the sample behind it. For metrics
// that are not a statistic of repeated samples N is 1 and the quartiles
// equal the value.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// summarize reports the q-quantile of xs scaled by scale, with quartiles.
func summarize(xs []float64, q, scale float64) summary {
	return summary{
		Value: quantile(xs, q) * scale,
		N:     len(xs),
		Q1:    quantile(xs, 0.25) * scale,
		Q3:    quantile(xs, 0.75) * scale,
	}
}

// single wraps a one-off measurement.
func single(v float64) summary { return summary{Value: v, N: 1, Q1: v, Q3: v} }
