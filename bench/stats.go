package main

import (
	"slices"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of all samples at or below it.
func percentile(sorted []float64, p int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[max(rank(p, n), 1)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(p, n int) int { return (p*n + 99) / 100 }

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []int{99, 95, 90}

// tailPercentile picks the percentile a tail timing reports: the highest
// candidate whose nearest rank leaves at least ten samples beyond it, so a
// tail never rests on a handful of outliers. With too few samples for any
// candidate it falls back to the median.
func tailPercentile(n int) int {
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

// sortedIn converts durations to a sorted slice in the given unit.
func sortedIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	slices.Sort(out)
	return out
}

// median is the nearest-rank median of unsorted samples.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 50)
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
