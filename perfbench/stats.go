package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// A percentile with fewer samples beyond it is decided by one or two
// outliers and does not repeat from run to run.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs with at least minBeyond
// samples above it: the value of order statistic k = n-minBeyond (1-based)
// and its percentile 100·k/n. ok is false when there are not more than
// minBeyond samples, so no such percentile exists.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	k := n - minBeyond
	if k < 1 {
		return math.NaN(), 0, false
	}
	s := sorted(xs)
	return s[k-1], 100 * float64(k) / float64(n), true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
