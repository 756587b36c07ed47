package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"testing"

	repro "repro"
	"repro/internal/tune"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10, shuffled
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("p95 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestBeyondCountsSamplesPastThePercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{200, 95, 10}, // the smallest count for which p95 has ten samples beyond it
		{199, 95, 9},
		{1000, 95, 50},
		{10, 50, 5},
		{1, 95, 0},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	// A speedup of 4x and a slowdown to 1/4 cancel out.
	if got := geomean([]float64{4, 0.25}); math.Abs(got-1) > 1e-12 {
		t.Errorf("geomean(4, 1/4) = %v, want 1", got)
	}
	if got := geomean([]float64{3, 3, 3}); math.Abs(got-3) > 1e-12 {
		t.Errorf("geomean(3, 3, 3) = %v, want 3", got)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}, {math.NaN()}} {
		if !math.IsNaN(geomean(bad)) {
			t.Errorf("geomean(%v) should be NaN", bad)
		}
	}
}

func TestFailedFrac(t *testing.T) {
	lost := fmt.Errorf("engine: remote evaluation: %w", &repro.EvaluationLostError{RunIndex: 7, Attempts: 4, Last: errors.New("lease timed out")})
	outs := []outcome{
		{Trials: 16, Budget: 16},                                         // clean
		{Trials: 16, Budget: 16, Status: http.StatusCreated},             // clean over HTTP
		{Status: http.StatusTooManyRequests, Budget: 16},                 // refused by admission control
		{Err: lost, Budget: 16},                                          // lost evaluation
		{Trials: 12, Budget: 16},                                         // short of its budget
		{Err: context.Canceled, Trials: 16, Budget: 16},                  // engine error
		{Trials: 16, Budget: 16, Status: http.StatusInternalServerError}, // non-2xx
	}
	if got, want := failedFrac(outs), 5.0/7.0; got != want {
		t.Errorf("failedFrac = %v, want %v", got, want)
	}
	if !errors.Is(outs[3].Err, repro.ErrEvaluationLost) {
		t.Error("the lost evaluation should match ErrEvaluationLost")
	}
	if failedFrac(nil) != 0 {
		t.Error("failedFrac of nothing attempted should be 0")
	}
}

// A trial whose simulated run failed (an OOM) is a tuning outcome: the
// session finished its budget and does not count as failed.
func TestSimulatedOOMTrialIsNotAFailure(t *testing.T) {
	res := &repro.TuningResult{}
	for i := 0; i < 4; i++ {
		r := tune.Result{Time: 10}
		if i == 2 {
			r = tune.Result{Time: 40, Failed: true, FailReason: "out of memory"}
		}
		res.Trials = append(res.Trials, tune.Trial{N: i + 1, Result: r})
	}
	o := outcome{Trials: len(res.Trials), Budget: 4}
	if o.failed() || failedFrac([]outcome{o}) != 0 {
		t.Error("a session with a simulated OOM trial but its full budget counted as failed")
	}
}
