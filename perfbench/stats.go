package main

import (
	"math"
	"sort"
	"time"
)

// durations is a latency sample. Percentiles use the nearest-rank rule
// on a sorted copy.
type durations []time.Duration

func (d durations) sorted() durations {
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// pct returns the p-quantile (0 < p <= 1) of an already sorted sample,
// or 0 for an empty one.
func (d durations) pct(p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(d)))) - 1
	return d[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a small float sample (set-up repetitions).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0 (the layer did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
