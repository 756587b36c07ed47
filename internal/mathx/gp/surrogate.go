package gp

import (
	"errors"
	"math"
	"sync"

	"repro/internal/mathx/linalg"
	"repro/internal/mathx/stat"
)

// Surrogate is the model surface the GP-based tuners program against: the
// exact GP and the sparse inducing-point GP both implement it, so iTuned
// and OtterTune consume either tier unchanged. The contract mirrors the
// exact GP's: observations are standardized internally, an unfitted
// surrogate predicts (0, +Inf) — and scores 0 expected improvement —
// rather than panicking, and none of the methods are safe for concurrent
// use on one instance (they share per-instance workspaces to stay
// allocation-free).
type Surrogate interface {
	// Fit conditions the surrogate on (x, y), selecting hyperparameters
	// when optimize is set. Rows of x are deep-copied.
	Fit(x [][]float64, y []float64, optimize bool) error
	// Predict returns the posterior mean and standard deviation at p in
	// original y units; (0, +Inf) before a successful Fit.
	Predict(p []float64) (mu, sigma float64)
	// PredictAll evaluates the posterior at every point.
	PredictAll(points [][]float64) (mu, sigma []float64)
	// ExpectedImprovement scores p against the incumbent best (larger is
	// better); 0 before a successful Fit.
	ExpectedImprovement(p []float64, best float64) float64
	// ScoreCandidates batch-scores expected improvement for a candidate
	// pool, writing into dst when it has capacity.
	ScoreCandidates(points [][]float64, best float64, dst []float64) []float64
	// LCB returns the lower confidence bound mu − beta·sigma.
	LCB(p []float64, beta float64) float64
	// TrainingSize returns the number of conditioning observations.
	TrainingSize() int
	// Tier names the surrogate tier ("exact", "sparse").
	Tier() string
}

// Interface conformance.
var (
	_ Surrogate = (*GP)(nil)
	_ Surrogate = (*SparseGP)(nil)
)

// expectedImprovement is the shared EI arithmetic: identical to the exact
// GP's historical formula for finite sigma, and 0 for the unfitted case
// (sigma = +Inf), where the raw formula would produce ±Inf/NaN scores that
// a candidate-screening argmax would then propagate.
func expectedImprovement(mu, sigma, best float64) float64 {
	if sigma < 1e-12 || math.IsInf(sigma, 1) {
		return 0
	}
	z := (best - mu) / sigma
	return (best-mu)*stat.NormCDF(z) + sigma*stat.NormPDF(z)
}

// standardize computes the shared y-standardization: mean, a std floored
// away from zero, and the standardized targets written into ys (resized).
func standardize(ys []float64, yRaw []float64) ([]float64, float64, float64) {
	mean := stat.Mean(yRaw)
	std := stat.Std(yRaw)
	if std < 1e-12 {
		std = 1
	}
	ys = resize(ys, len(yRaw))
	for i, v := range yRaw {
		ys[i] = (v - mean) / std
	}
	return ys, mean, std
}

// checkTrainingSet validates the (x, y) pair every Fit accepts and returns
// the input dimension.
func checkTrainingSet(x [][]float64, y []float64) (int, error) {
	if len(x) != len(y) {
		return 0, errors.New("gp: x and y length mismatch")
	}
	if len(x) == 0 {
		return 0, errors.New("gp: empty training set")
	}
	d := len(x[0])
	for _, row := range x {
		if len(row) != d {
			return 0, errors.New("gp: ragged training inputs")
		}
	}
	return d, nil
}

// kCenterIndices returns m row indices of x chosen by deterministic greedy
// k-center (farthest-point) selection: start from the point farthest from
// the centroid, then repeatedly add the point maximizing its distance to
// the chosen set. Ties break toward the lowest index and the selection
// reads only the inputs, so for fixed data the inducing set is a pure
// function of (x, m) — no randomness, no map-order dependence — which keeps
// sparse-tier sessions byte-identical at any parallelism. Indices are
// returned in ascending order. Cost O(n·m·d).
func kCenterIndices(x *linalg.Matrix, m int) []int {
	n, d := x.R, x.C
	if m >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	xd := x.Data
	centroid := make([]float64, d)
	for i := 0; i < n; i++ {
		row := xd[i*d : (i+1)*d]
		for k, v := range row {
			centroid[k] += v
		}
	}
	for k := range centroid {
		centroid[k] /= float64(n)
	}
	sq := func(a, b []float64) float64 {
		var s float64
		for k, v := range a {
			diff := v - b[k]
			s += diff * diff
		}
		return s
	}
	first, firstD := 0, math.Inf(-1)
	for i := 0; i < n; i++ {
		if dd := sq(xd[i*d:(i+1)*d], centroid); dd > firstD {
			first, firstD = i, dd
		}
	}
	chosen := make([]int, 0, m)
	chosen = append(chosen, first)
	minD := make([]float64, n)
	for i := 0; i < n; i++ {
		minD[i] = sq(xd[i*d:(i+1)*d], xd[first*d:(first+1)*d])
	}
	for len(chosen) < m {
		next, nextD := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if minD[i] > nextD {
				next, nextD = i, minD[i]
			}
		}
		chosen = append(chosen, next)
		for i := 0; i < n; i++ {
			if dd := sq(xd[i*d:(i+1)*d], xd[next*d:(next+1)*d]); dd < minD[i] {
				minD[i] = dd
			}
		}
	}
	sortInts(chosen)
	return chosen
}

func sortInts(s []int) {
	// Insertion sort: m is small (≤ ~128) and this avoids importing sort.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// subsetHypers grid-searches hyperparameters on an exact GP restricted to
// the given row subset — O(m³) per candidate instead of O(n³) — and returns
// the winner. The subset's own standardization is close to the full set's
// for the smooth surfaces tuners model; the approximation is documented in
// DESIGN.md §12. On a degenerate subset (factorization fails throughout) it
// returns fallback.
func subsetHypers(kernel KernelKind, x *linalg.Matrix, yRaw []float64, subset []int, fallback Hyper) Hyper {
	d := x.C
	sx := make([][]float64, len(subset))
	sy := make([]float64, len(subset))
	for i, at := range subset {
		sx[i] = x.Data[at*d : (at+1)*d]
		sy[i] = yRaw[at]
	}
	g := New(kernel)
	if err := g.Fit(sx, sy, true); err != nil {
		return fallback
	}
	return g.Hyper
}

// accumGram accumulates base + Σᵢ wᵢ·rowᵢ·rowᵢᵀ over the rows of rows,
// returning a new m×m symmetric matrix. The sum is chunked at a fixed
// width and the per-chunk partial matrices are merged in chunk order, so
// the result is bit-identical at every worker count: the chunk boundaries —
// not the worker count — define the floating-point grouping. This is the
// sparse GP's O(n·m²) information-matrix build, A = Kmm + Kmn·Λ⁻¹·Knm.
func accumGram(base *linalg.Matrix, rows *linalg.Matrix, weights []float64, workers int) *linalg.Matrix {
	const gramChunk = 256
	n, m := rows.R, rows.C
	out := base.Clone()
	nchunks := (n + gramChunk - 1) / gramChunk
	parts := make([]*linalg.Matrix, nchunks)
	parallelGram(nchunks, workers, func(c int) {
		p := linalg.New(m, m)
		pd := p.Data
		lo, hi := c*gramChunk, (c+1)*gramChunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			row := rows.Data[i*m : (i+1)*m]
			w := weights[i]
			for a := 0; a < m; a++ {
				va := w * row[a]
				if va == 0 {
					continue
				}
				prow := pd[a*m : a*m+a+1]
				for b, rb := range row[:a+1] {
					prow[b] += va * rb
				}
			}
		}
		parts[c] = p
	})
	od := out.Data
	for _, p := range parts { // fixed merge order: chunk 0, 1, 2, …
		pd := p.Data
		for a := 0; a < m; a++ {
			for b := 0; b <= a; b++ {
				od[a*m+b] += pd[a*m+b]
			}
		}
	}
	for a := 0; a < m; a++ { // mirror the lower triangle
		for b := a + 1; b < m; b++ {
			od[a*m+b] = od[b*m+a]
		}
	}
	return out
}

// parallelGram runs fn(c) for c in [0, chunks) across up to workers
// goroutines. Each chunk writes only its own slot, so scheduling order is
// invisible in the result.
func parallelGram(chunks, workers int, fn func(c int)) {
	if workers <= 1 || chunks <= 1 {
		for c := 0; c < chunks; c++ {
			fn(c)
		}
		return
	}
	if workers > chunks {
		workers = chunks
	}
	var wg sync.WaitGroup
	step := (chunks + workers - 1) / workers
	for lo := 0; lo < chunks; lo += step {
		hi := lo + step
		if hi > chunks {
			hi = chunks
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for c := lo; c < hi; c++ {
				fn(c)
			}
		}(lo, hi)
	}
	wg.Wait()
}
