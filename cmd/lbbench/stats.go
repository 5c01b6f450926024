package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported upper percentile:
// with fewer, the percentile is the largest few samples' noise, not a
// property of the distribution.
const minTail = 10

// percentile returns the q-quantile of xs (0 < q < 1) by linear
// interpolation between order statistics. The median is always defined
// for a non-empty sample; an upper percentile (q > 0.5) is refused when
// fewer than minTail samples lie beyond it, so p90 needs at least 100
// samples and p90 of 50 is an error.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	switch {
	case n == 0:
		return 0, fmt.Errorf("percentile of an empty sample")
	case q <= 0 || q >= 1:
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	case q > 0.5:
		if beyond := n - int(math.Ceil(q*float64(n))); beyond < minTail {
			return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*q, n, beyond, minTail)
		}
	}
	return quantile(sorted(xs), q), nil
}

// summary describes a sample: its median, the spread between its quartiles
// and its extremes.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	return summary{
		N:      len(s),
		Median: quantile(s, 0.5),
		IQR:    quantile(s, 0.75) - quantile(s, 0.25),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

func median(xs []float64) float64 { return summarize(xs).Median }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the order statistics of the
// sorted sample s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}
