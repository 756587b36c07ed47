// Package gp implements Gaussian-process regression with squared-exponential
// and Matérn 5/2 kernels, log-marginal-likelihood hyperparameter selection,
// and the Expected Improvement / Upper Confidence Bound acquisition
// functions. It is the statistical engine behind the iTuned and OtterTune
// reproductions.
//
// The hot path is organized around three caches that exploit the kernel
// algebra. First, both kernels depend on the inputs only through pairwise
// squared distances, so Fit computes the n×n distance matrix once and every
// kernel matrix derives from it. Second, the hyperparameter grid factors:
// for a base kernel matrix B(ℓ) built at unit signal variance,
//
//	K(σ², ℓ, σ_n) = σ²·B(ℓ) + (σ_n² + ε)·I
//
// so the 7×5×3 grid needs only 7 transcendental-heavy kernel builds — one
// per lengthscale — with each of the 105 candidates costing a scale, a
// diagonal add, and a Cholesky factorization. Third, each candidate's
// factor is kept, packed, between optimizing Fits: K depends only on the
// inputs, so when a refit's rows extend the previous fit's rows bit for
// bit — a tuning session only ever appends observations — each factor is
// bordered by the new rows in O(k·n²) instead of refactored in O(n³), and
// only the forward solve against the re-standardized targets and the
// log-determinant are recomputed. Bordering is bit-identical to factoring
// from scratch, so the selected hyperparameters never depend on the cache.
// It is invalidated per candidate when that candidate needed jitter, and
// wholesale when the rows change, shrink, or outgrow gridCacheMaxN, or a
// Fit skips the search. It is kept only once a GP is refit on extended
// rows, and costs 105·n(n+1)/2 float64s — about 1.5 MB at n = 60.
//
// A GP instance is not safe for concurrent use: Predict and the acquisition
// functions share per-instance workspaces to stay allocation-free. Distinct
// instances are independent.
package gp

import (
	"errors"
	"math"

	"repro/internal/mathx/linalg"
	"repro/internal/mathx/stat"
)

// KernelKind selects the covariance function.
type KernelKind int

const (
	// SquaredExponential is the Gaussian (RBF) kernel with a shared
	// lengthscale: k(a,b) = σ²·exp(−‖a−b‖²/(2ℓ²)).
	SquaredExponential KernelKind = iota
	// Matern52 is the Matérn ν=5/2 kernel, a rougher prior that fits
	// performance surfaces with cliffs better than the RBF.
	Matern52
)

// sqrt5 hoists the Matérn constant out of the per-pair kernel math.
var sqrt5 = math.Sqrt(5)

// Hyper holds GP hyperparameters: signal variance, lengthscale, and
// observation noise standard deviation — all in standardized-y units.
type Hyper struct {
	SignalVar   float64
	Lengthscale float64
	NoiseStd    float64
}

// GP is a Gaussian-process regressor over points in [0,1]^d with observations
// standardized internally. Fit must be called before Predict; an unfitted GP
// predicts (0, +Inf) — total uncertainty — rather than crashing.
type GP struct {
	Kernel KernelKind
	Hyper  Hyper

	x     *linalg.Matrix // n×d training inputs (deep copy of the caller's rows)
	d2    *linalg.Matrix // n×n pairwise squared distances, built once per Fit
	yRaw  []float64
	yMean float64
	yStd  float64
	ys    []float64 // standardized targets, computed once per Fit
	chol  *linalg.Cholesky
	alpha []float64
	grid  *gridCache

	// Reusable workspaces for Predict/EI/LCB (kernel vector and solve
	// scratch). These make single-point prediction allocation-free but make
	// a GP instance unsafe for concurrent use.
	wsK []float64
	wsV []float64
}

// New returns a GP with the given kernel and reasonable default
// hyperparameters (tuned during Fit when optimize is requested).
func New(kernel KernelKind) *GP {
	return &GP{Kernel: kernel, Hyper: defaultHyper}
}

// defaultHyper is a new GP's starting point, and what an optimizing Fit
// keeps when no grid candidate can be factored.
var defaultHyper = Hyper{SignalVar: 1, Lengthscale: 0.3, NoiseStd: 0.1}

// Fit conditions the GP on (x, y). If optimize is true, hyperparameters are
// selected by grid search over log-marginal likelihood, independent of the
// current ones, so refitting a GP is bit-identical to fitting a new one
// (and cheaper, when x extends the rows of the previous optimizing Fit);
// otherwise the current hyperparameters are used. The rows of x are
// deep-copied, so the caller may mutate them afterwards without corrupting
// the model. It returns an error when the kernel matrix cannot be
// factorized even with jitter.
func (g *GP) Fit(x [][]float64, y []float64, optimize bool) error {
	if len(x) != len(y) {
		return errors.New("gp: x and y length mismatch")
	}
	if len(x) == 0 {
		return errors.New("gp: empty training set")
	}
	d := len(x[0])
	for _, row := range x {
		if len(row) != d {
			return errors.New("gp: ragged training inputs")
		}
	}
	n := len(x)
	g.x = linalg.FromRows(x)
	g.yRaw = append(g.yRaw[:0], y...)
	g.yMean = stat.Mean(y)
	g.yStd = stat.Std(y)
	if g.yStd < 1e-12 {
		g.yStd = 1
	}
	g.ys = resize(g.ys, n)
	for i, v := range g.yRaw {
		g.ys[i] = (v - g.yMean) / g.yStd
	}
	g.buildD2()
	if !optimize {
		g.grid = nil
		return g.refit()
	}
	if f := g.optimizeHypers(); f != nil {
		// The selected candidate's cached factor is the one refit would
		// compute: the same matrix, factored without jitter.
		g.setFactor(f.Dense())
		return nil
	}
	return g.refit()
}

// buildD2 fills the pairwise squared-distance cache from the training inputs.
func (g *GP) buildD2() {
	n, d := g.x.R, g.x.C
	if g.d2 == nil || g.d2.R != n {
		g.d2 = linalg.New(n, n)
	}
	xd := g.x.Data
	dd := g.d2.Data
	for i := 0; i < n; i++ {
		xi := xd[i*d : (i+1)*d]
		dd[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			xj := xd[j*d : (j+1)*d]
			var s float64
			for k, v := range xi {
				diff := v - xj[k]
				s += diff * diff
			}
			dd[i*n+j] = s
			dd[j*n+i] = s
		}
	}
}

// baseKernelInto writes the unit-signal-variance kernel matrix for
// lengthscale l into b, reading only the distance cache. Per-pair constants
// (√5, 2ℓ²) are hoisted out of the loops.
func (g *GP) baseKernelInto(b *linalg.Matrix, l float64) {
	n := g.d2.R
	dd := g.d2.Data
	bd := b.Data
	switch g.Kernel {
	case Matern52:
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				r := math.Sqrt(dd[i*n+j]) / l
				s5 := sqrt5 * r
				v := (1 + s5 + 5*r*r/3) * math.Exp(-s5)
				bd[i*n+j] = v
				bd[j*n+i] = v
			}
		}
	default:
		twoL2 := 2 * l * l
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := math.Exp(-dd[i*n+j] / twoL2)
				bd[i*n+j] = v
				bd[j*n+i] = v
			}
		}
	}
}

// kernelMatrix builds K(σ², ℓ, σ_n) = σ²·B(ℓ) + (σ_n² + ε)·I from the
// distance cache, for signal variance sv, lengthscale l and noise σ_n².
func (g *GP) kernelMatrix(sv, l, noise float64) *linalg.Matrix {
	n := g.x.R
	k := linalg.New(n, n)
	g.baseKernelInto(k, l)
	for i := range k.Data {
		k.Data[i] *= sv
	}
	return k.AddDiag(noise + 1e-8)
}

// refit factors the kernel matrix for the current hyperparameters and solves
// for alpha.
func (g *GP) refit() error {
	k := g.kernelMatrix(g.Hyper.SignalVar, g.Hyper.Lengthscale, g.Hyper.NoiseStd*g.Hyper.NoiseStd)
	ch, _, err := linalg.CholeskyWithJitter(k, 1e-8, 8)
	if err != nil {
		// Invalidate rather than leave a factor sized for the previous
		// training set: Predict then reports total uncertainty instead of
		// panicking on mismatched lengths.
		g.chol = nil
		return err
	}
	g.setFactor(ch)
	return nil
}

// setFactor installs ch, the factor of the kernel matrix, and solves for
// alpha.
func (g *GP) setFactor(ch *linalg.Cholesky) {
	n := ch.L.R
	g.chol = ch
	g.alpha = resize(g.alpha, n)
	ch.SolveVecInto(g.alpha, g.ys)
	g.growWorkspaces(n)
}

// logMarginal returns the log marginal likelihood under the current
// hyperparameters; −Inf if factorization fails.
func (g *GP) logMarginal() float64 {
	if err := g.refit(); err != nil {
		return math.Inf(-1)
	}
	n := float64(len(g.ys))
	return -0.5*linalg.Dot(g.ys, g.alpha) - 0.5*g.chol.LogDet() - 0.5*n*math.Log(2*math.Pi)
}

// The hyperparameter grid, over ranges suited to unit-cube inputs and
// standardized outputs: 7 lengthscales × 5 noise levels × 3 signal
// variances, enumerated in that nesting order (the argmax keeps the first
// of equal likelihoods, so the order is part of the result).
var (
	gridLengths = [...]float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2}
	gridNoises  = [...]float64{0.01, 0.05, 0.1, 0.2, 0.4}
	gridSignals = [...]float64{0.5, 1.0, 2.0}
)

const (
	gridPerLength = len(gridNoises) * len(gridSignals)
	gridSize      = len(gridLengths) * gridPerLength

	// gridCacheMaxN bounds the training sets whose candidate factors the
	// grid keeps between Fits: 105 packed factors cost 105·n(n+1)/2
	// float64s, about 1.5 MB at n = 60 and 6.9 MB at this bound. The
	// model-based tuners stop searching hyperparameters on the exact tier
	// well below it (iTuned past 60 observations, OtterTune past 80).
	gridCacheMaxN = 128
)

// gridCache carries the hyperparameter grid from one optimizing Fit to the
// next. Each candidate's kernel matrix depends only on the training inputs,
// and a refit in a tuning session only appends rows, so a candidate's
// Cholesky factor can be bordered by the new rows instead of refactored;
// only the forward solve against the re-standardized targets and the
// log-determinant are recomputed. Factors are kept once a GP is refit on
// rows that extend the ones it was fit on before, so a GP fit once pays
// for one factor, not 105.
type gridCache struct {
	kernel KernelKind
	d      int
	x      []float64 // the training rows the cache was synced to, row-major
	// factors holds one packed factor per candidate, in grid order, each
	// covering all of x or nothing: an empty factor (the candidate needed
	// jitter, or x changed) is factored from its first row next time. nil
	// while no factors are kept.
	factors []linalg.PackedCholesky
	one     linalg.PackedCholesky // the factor of every candidate when none are kept
	base    []float64             // packed base-kernel rows for one lengthscale
	rows    []float64             // packed candidate-kernel rows being bordered on
	z       []float64             // L⁻¹y
}

// sync records x as the training rows and returns the factors this Fit
// borders — nil when it keeps none. Kept factors survive only if x extends
// the previous rows bit for bit under the same kernel; a changed or shrunk
// prefix empties them for refactoring, and training sets past
// gridCacheMaxN drop them.
func (c *gridCache) sync(kernel KernelKind, x *linalg.Matrix) []linalg.PackedCholesky {
	extends := len(c.x) > 0 && c.kernel == kernel && c.d == x.C && len(c.x) <= len(x.Data)
	for i := 0; extends && i < len(c.x); i++ {
		extends = math.Float64bits(c.x[i]) == math.Float64bits(x.Data[i])
	}
	if !extends {
		c.kernel, c.d, c.x = kernel, x.C, c.x[:0]
		for i := range c.factors {
			c.factors[i].Reset()
		}
	}
	c.x = append(c.x, x.Data[len(c.x):]...)
	switch {
	case x.R > gridCacheMaxN:
		c.factors = nil
	case extends && c.factors == nil:
		c.factors = make([]linalg.PackedCholesky, gridSize)
	}
	return c.factors
}

// basePackedInto writes the packed lower-triangular rows lo..n−1 of the
// unit-signal-variance kernel matrix for lengthscale l into dst, with
// baseKernelInto's arithmetic.
func (g *GP) basePackedInto(dst []float64, l float64, lo int) []float64 {
	n := g.d2.R
	dd := g.d2.Data
	dst = dst[:0]
	switch g.Kernel {
	case Matern52:
		for i := lo; i < n; i++ {
			for _, d2 := range dd[i*n : i*n+i+1] {
				r := math.Sqrt(d2) / l
				s5 := sqrt5 * r
				dst = append(dst, (1+s5+5*r*r/3)*math.Exp(-s5))
			}
		}
	default:
		twoL2 := 2 * l * l
		for i := lo; i < n; i++ {
			for _, d2 := range dd[i*n : i*n+i+1] {
				dst = append(dst, math.Exp(-d2/twoL2))
			}
		}
	}
	return dst
}

// optimizeHypers grid-searches lengthscale × noise × signal variance by log
// marginal likelihood. The grid factors: one base kernel build per
// lengthscale, then each (noise, signal) candidate is a scale plus a
// diagonal add. Each candidate's packed factor is bordered by the rows it
// does not cover yet — all of them on a first fit, only the appended ones
// on a refit over an extended training set — with arithmetic bit-identical
// to factoring the whole matrix, so the selected hyperparameters never
// depend on the cache. A candidate that is not positive definite without
// jitter is factored densely with jitter, as refit does, and refactored
// from scratch next time. If no candidate factors at all, the defaults New
// sets are kept. It returns the selected candidate's factor when the cache
// holds it.
func (g *GP) optimizeHypers() *linalg.PackedCholesky {
	if g.grid == nil {
		g.grid = &gridCache{}
	}
	c := g.grid
	factors := c.sync(g.Kernel, g.x)
	n := g.x.R
	c.z = resize(c.z, n)
	logConst := 0.5 * float64(n) * math.Log(2*math.Pi)
	best := math.Inf(-1)
	bestH := defaultHyper
	var bestF *linalg.PackedCholesky
	for li, l := range gridLengths {
		// Build only the base rows some candidate of this lengthscale lacks.
		lo := 0
		if factors != nil {
			lo = n
			for _, f := range factors[li*gridPerLength : (li+1)*gridPerLength] {
				lo = min(lo, f.N)
			}
		}
		c.base = g.basePackedInto(c.base, l, lo)
		for ni, nz := range gridNoises {
			noise := nz * nz
			for si, sv := range gridSignals {
				f := &c.one
				if factors != nil {
					f = &factors[li*gridPerLength+ni*len(gridSignals)+si]
				} else {
					f.Reset()
				}
				// The candidate matrix's rows f.N..n−1: sv·B(ℓ) with the noise
				// added to the diagonal, as K(σ², ℓ, σ_n) = σ²·B(ℓ) + (σ_n² + ε)·I.
				c.rows = c.rows[:0]
				off := (f.N*(f.N+1) - lo*(lo+1)) / 2
				for i := f.N; i < n; i++ {
					for _, v := range c.base[off : off+i] {
						c.rows = append(c.rows, sv*v)
					}
					c.rows = append(c.rows, sv*c.base[off+i]+(noise+1e-8))
					off += i + 1
				}
				var quad, logDet float64
				if f.ExtendRows(c.rows) == nil {
					// yᵀK⁻¹y = ‖L⁻¹y‖²: the forward half of the solve suffices.
					f.SolveLowerInto(c.z, g.ys)
					quad, logDet = linalg.Dot(c.z, c.z), f.LogDet()
				} else {
					// Not positive definite as it stands: factor the dense
					// matrix with stepwise jitter, and refactor it from its
					// first row next time.
					f.Reset()
					ch, _, err := linalg.CholeskyWithJitter(g.kernelMatrix(sv, l, noise), 1e-8, 8)
					if err != nil {
						continue
					}
					ch.SolveLowerInto(c.z, g.ys)
					quad, logDet = linalg.Dot(c.z, c.z), ch.LogDet()
				}
				lm := -0.5*quad - 0.5*logDet - logConst
				if lm > best {
					best = lm
					bestH = Hyper{SignalVar: sv, Lengthscale: l, NoiseStd: nz}
					bestF = nil
					if factors != nil && f.N == n {
						bestF = f
					}
				}
			}
		}
	}
	g.Hyper = bestH
	return bestF
}

// Predict returns the posterior mean and standard deviation at point p in
// original y units. An unfitted GP returns (0, +Inf). Predict reuses
// per-instance workspaces and performs no allocations.
func (g *GP) Predict(p []float64) (mu, sigma float64) {
	if g.chol == nil {
		return 0, math.Inf(1)
	}
	n, d := g.x.R, g.x.C
	ks := g.wsK[:n]
	g.kernelVecInto(ks, p, n, d)
	muStd := linalg.Dot(ks, g.alpha)
	v := g.wsV[:n]
	g.chol.SolveVecInto(v, ks)
	varStd := g.Hyper.SignalVar - linalg.Dot(ks, v)
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return muStd*g.yStd + g.yMean, math.Sqrt(varStd) * g.yStd
}

// kernelVecInto fills ks with k(x_i, p) for every training point.
func (g *GP) kernelVecInto(ks, p []float64, n, d int) {
	xd := g.x.Data
	sv, l := g.Hyper.SignalVar, g.Hyper.Lengthscale
	switch g.Kernel {
	case Matern52:
		for i := 0; i < n; i++ {
			xi := xd[i*d : (i+1)*d]
			var d2 float64
			for k, v := range xi {
				diff := v - p[k]
				d2 += diff * diff
			}
			r := math.Sqrt(d2) / l
			s5 := sqrt5 * r
			ks[i] = sv * ((1 + s5 + 5*r*r/3) * math.Exp(-s5))
		}
	default:
		twoL2 := 2 * l * l
		for i := 0; i < n; i++ {
			xi := xd[i*d : (i+1)*d]
			var d2 float64
			for k, v := range xi {
				diff := v - p[k]
				d2 += diff * diff
			}
			ks[i] = sv * math.Exp(-d2/twoL2)
		}
	}
}

// PredictAll evaluates the posterior at every point, reusing the GP's
// workspaces between points; only the two result slices are allocated. It
// honors Predict's pre-Fit guard: an unfitted GP yields (0, +Inf) for every
// point rather than panicking.
func (g *GP) PredictAll(points [][]float64) (mu, sigma []float64) {
	mu = make([]float64, len(points))
	sigma = make([]float64, len(points))
	if g.chol == nil {
		for i := range sigma {
			sigma[i] = math.Inf(1)
		}
		return mu, sigma
	}
	for i, p := range points {
		mu[i], sigma[i] = g.Predict(p)
	}
	return mu, sigma
}

// ExpectedImprovement returns EI at p for minimization against the incumbent
// best observed value. Larger is better; 0 before a successful Fit.
func (g *GP) ExpectedImprovement(p []float64, best float64) float64 {
	mu, sigma := g.Predict(p)
	return expectedImprovement(mu, sigma, best)
}

// ScoreCandidates returns Expected Improvement against best for every
// candidate, writing into dst when it has capacity (pass nil to allocate).
// One batched call serves a whole candidate pool allocation-free — the
// screening step of the iTuned and OtterTune proposal loops. Like Predict,
// it tolerates an unfitted model, scoring every candidate 0 instead of
// propagating the unfitted sigma = +Inf through the EI formula (which would
// hand the downstream argmax ±Inf/NaN scores).
func (g *GP) ScoreCandidates(points [][]float64, best float64, dst []float64) []float64 {
	if cap(dst) < len(points) {
		dst = make([]float64, len(points))
	}
	dst = dst[:len(points)]
	if g.chol == nil {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for i, p := range points {
		dst[i] = g.ExpectedImprovement(p, best)
	}
	return dst
}

// LCB returns the lower confidence bound mu − beta·sigma (minimization form
// of UCB). Smaller is more promising.
func (g *GP) LCB(p []float64, beta float64) float64 {
	mu, sigma := g.Predict(p)
	return mu - beta*sigma
}

// TrainingSize returns the number of conditioning points.
func (g *GP) TrainingSize() int {
	if g.x == nil {
		return 0
	}
	return g.x.R
}

// Tier implements Surrogate: the exact O(n³) tier.
func (g *GP) Tier() string { return "exact" }

// growWorkspaces ensures the prediction workspaces hold n entries.
func (g *GP) growWorkspaces(n int) {
	if cap(g.wsK) < n {
		g.wsK = make([]float64, n)
		g.wsV = make([]float64, n)
	}
}

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
