package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100):
// the smallest sample with at least p% of the samples at or below it. It
// returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// beyond is how many samples lie strictly above the nearest-rank p-th
// percentile's position — the count that makes a tail percentile
// trustworthy (at least ten, by this benchmark's rule).
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n - min(max(rank, 1), n)
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean returns the geometric mean of positive values, NaN when empty or
// when any value is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// outcome is what the benchmark saw of one attempted session.
type outcome struct {
	// Err is the session's error: an engine failure, a lost remote
	// evaluation, a transport error.
	Err error
	// Status is the HTTP status of the submit request (0 on the library
	// path, where there is none).
	Status int
	// Trials is how many trials the finished session recorded, against
	// the Budget it was given. Trials whose simulated run failed (an OOM,
	// say) still count: they are tuning outcomes, not benchmark failures.
	Trials, Budget int
}

// failed reports whether the session counts against the benchmark: an
// error, a non-2xx (a 429 included), or a short trial budget.
func (o outcome) failed() bool {
	if o.Err != nil {
		return true
	}
	if o.Status != 0 && (o.Status < 200 || o.Status > 299) {
		return true
	}
	return o.Trials != o.Budget
}

// failedFrac is failed sessions over sessions attempted.
func failedFrac(os []outcome) float64 {
	if len(os) == 0 {
		return 0
	}
	n := 0
	for _, o := range os {
		if o.failed() {
			n++
		}
	}
	return float64(n) / float64(len(os))
}
