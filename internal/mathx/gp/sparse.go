package gp

import (
	"math"
	"runtime"

	"repro/internal/mathx/linalg"
)

// SparseGP is an inducing-point Gaussian process (FITC — fully independent
// training conditional) over m ≪ n deterministic greedy k-center inducing
// points. It bends the exact GP's asymptote: Fit costs O(n·m²) instead of
// O(n³) and Predict O(m²) instead of O(n²). As m → n it converges
// to the exact GP (at m = n the FITC correction vanishes and the two agree
// up to floating-point grouping).
//
// The math, in standardized-y units with Λᵢ = k(xᵢ,xᵢ) − ‖Lmm⁻¹·kmᵢ‖² + σ_n²
// (the FITC diagonal) and A = Kmm + Σᵢ kmᵢ·kmᵢᵀ/Λᵢ:
//
//	μ(x*)  = km*ᵀ · A⁻¹ · Σᵢ kmᵢ·ysᵢ/Λᵢ
//	σ²(x*) = k(x*,x*) − ‖Lmm⁻¹·km*‖² + ‖La⁻¹·km*‖²
//
// Hyperparameters are selected by the exact GP's grid search restricted to
// the inducing subset — O(m³) per candidate, not O(n³).
//
// Like the exact GP, a SparseGP is not safe for concurrent use (per-
// instance workspaces); distinct instances are independent.
type SparseGP struct {
	Kernel KernelKind
	Hyper  Hyper
	// MaxInducing caps the inducing set size m (default 64).
	MaxInducing int
	// Workers bounds the fan-out of the parallel fit stages
	// (0 = GOMAXPROCS). Results are bit-identical at every value.
	Workers int

	x        *linalg.Matrix // n×d training inputs (deep copy)
	yRaw     []float64
	yMean    float64
	yStd     float64
	ys       []float64
	inducing []int          // ascending row indices of the inducing set
	z        *linalg.Matrix // m×d inducing inputs
	lm       *linalg.Cholesky
	knm      *linalg.Matrix // n×m cross-kernel rows
	lam      []float64      // FITC diagonal Λᵢ (includes noise)
	la       *linalg.Cholesky
	alpha    []float64
	wsK      []float64 // m: kernel vector at the query point
	wsU      []float64 // m: Lmm forward-solve scratch
	wsW      []float64 // m: La forward-solve scratch
}

// NewSparse returns a sparse GP with the given kernel and the exact GP's
// default hyperparameters.
func NewSparse(kernel KernelKind) *SparseGP {
	return &SparseGP{Kernel: kernel, Hyper: Hyper{SignalVar: 1, Lengthscale: 0.3, NoiseStd: 0.1}}
}

// Tier implements Surrogate.
func (s *SparseGP) Tier() string { return "sparse" }

// TrainingSize implements Surrogate.
func (s *SparseGP) TrainingSize() int { return len(s.yRaw) }

// InducingCount reports the size of the current inducing set (0 before Fit).
func (s *SparseGP) InducingCount() int { return len(s.inducing) }

func (s *SparseGP) maxInducing() int {
	if s.MaxInducing > 0 {
		return s.MaxInducing
	}
	return 64
}

// Fit implements Surrogate. It selects the inducing set by greedy k-center,
// optionally grid-searches hyperparameters on that subset, and conditions
// the FITC model in O(n·m²).
func (s *SparseGP) Fit(x [][]float64, y []float64, optimize bool) error {
	if _, err := checkTrainingSet(x, y); err != nil {
		return err
	}
	s.x = linalg.FromRows(x)
	s.yRaw = append(s.yRaw[:0], y...)
	s.ys, s.yMean, s.yStd = standardize(s.ys, s.yRaw)
	m := s.maxInducing()
	if m > len(y) {
		m = len(y)
	}
	s.inducing = kCenterIndices(s.x, m)
	if optimize {
		s.Hyper = subsetHypers(s.Kernel, s.x, s.yRaw, s.inducing, s.Hyper)
	}
	return s.refit()
}

// kernelRowInto writes k(p, z_j) for every inducing point into dst.
func (s *SparseGP) kernelRowInto(dst, p []float64) {
	m, d := s.z.R, s.z.C
	zd := s.z.Data
	sv, l := s.Hyper.SignalVar, s.Hyper.Lengthscale
	for j := 0; j < m; j++ {
		zj := zd[j*d : (j+1)*d]
		var d2 float64
		for k, v := range zj {
			diff := v - p[k]
			d2 += diff * diff
		}
		dst[j] = sv * baseKernelAt(s.Kernel, d2, l)
	}
}

// refit rebuilds the FITC conditioning for the current hyperparameters and
// inducing set.
func (s *SparseGP) refit() error {
	n, d := s.x.R, s.x.C
	m := len(s.inducing)
	s.z = linalg.New(m, d)
	for i, at := range s.inducing {
		copy(s.z.Data[i*d:(i+1)*d], s.x.Data[at*d:(at+1)*d])
	}
	sv, l := s.Hyper.SignalVar, s.Hyper.Lengthscale
	noise := s.Hyper.NoiseStd*s.Hyper.NoiseStd + 1e-8

	// Kmm with jitter, factored once.
	kmm := linalg.New(m, m)
	zd := s.z.Data
	for i := 0; i < m; i++ {
		zi := zd[i*d : (i+1)*d]
		for j := i; j < m; j++ {
			zj := zd[j*d : (j+1)*d]
			var d2 float64
			for k, v := range zi {
				diff := v - zj[k]
				d2 += diff * diff
			}
			v := sv * baseKernelAt(s.Kernel, d2, l)
			kmm.Data[i*m+j] = v
			kmm.Data[j*m+i] = v
		}
	}
	kmm.AddDiag(1e-8)
	lm, _, err := linalg.CholeskyWithJitter(kmm, 1e-8, 8)
	if err != nil {
		s.invalidate()
		return err
	}
	s.lm = lm

	// Cross-kernel rows and the whitened rows V = (Lmm⁻¹·Knmᵀ)ᵀ.
	s.knm = linalg.New(n, m)
	xd := s.x.Data
	parallelGram((n+255)/256, s.workers(), func(c int) {
		lo, hi := c*256, (c+1)*256
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			s.kernelRowInto(s.knm.Data[i*m:(i+1)*m], xd[i*d:(i+1)*d])
		}
	})
	v := linalg.New(n, m)
	lm.SolveLowerEach(v, s.knm, s.workers())

	// FITC diagonal: prior variance minus the Nyström explained part, plus
	// noise; floored to keep the weights finite on duplicated points.
	s.lam = resize(s.lam, n)
	for i := 0; i < n; i++ {
		row := v.Data[i*m : (i+1)*m]
		var q float64
		for _, w := range row {
			q += w * w
		}
		li := sv - q + noise
		if li < 1e-10 {
			li = 1e-10
		}
		s.lam[i] = li
	}

	// Information matrix A = Kmm + Σ kmᵢ·kmᵢᵀ/Λᵢ and its factor.
	wts := make([]float64, n)
	for i := range wts {
		wts[i] = 1 / s.lam[i]
	}
	a := accumGram(kmm, s.knm, wts, s.workers())
	la, _, err := linalg.CholeskyWithJitter(a, 1e-8, 8)
	if err != nil {
		s.invalidate()
		return err
	}
	s.la = la
	s.alpha = resize(s.alpha, m)
	s.solveAlpha()
	s.growWorkspaces(m)
	return nil
}

// solveAlpha recomputes alpha = A⁻¹·Σ kmᵢ·ysᵢ/Λᵢ — O(n·m + m²).
func (s *SparseGP) solveAlpha() {
	n, m := s.knm.R, s.knm.C
	b := make([]float64, m)
	for i := 0; i < n; i++ {
		w := s.ys[i] / s.lam[i]
		row := s.knm.Data[i*m : (i+1)*m]
		for j, kv := range row {
			b[j] += w * kv
		}
	}
	s.la.SolveVecInto(s.alpha, b)
}

func (s *SparseGP) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (s *SparseGP) invalidate() {
	s.lm, s.la = nil, nil
}

// Predict implements Surrogate. An unfitted sparse GP returns (0, +Inf).
func (s *SparseGP) Predict(p []float64) (mu, sigma float64) {
	if s.la == nil {
		return 0, math.Inf(1)
	}
	m := len(s.inducing)
	ks := s.wsK[:m]
	s.kernelRowInto(ks, p)
	muStd := linalg.Dot(ks, s.alpha)
	u := s.wsU[:m]
	s.lm.SolveLowerInto(u, ks)
	w := s.wsW[:m]
	s.la.SolveLowerInto(w, ks)
	varStd := s.Hyper.SignalVar - linalg.Dot(u, u) + linalg.Dot(w, w)
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return muStd*s.yStd + s.yMean, math.Sqrt(varStd) * s.yStd
}

// PredictAll implements Surrogate.
func (s *SparseGP) PredictAll(points [][]float64) (mu, sigma []float64) {
	mu = make([]float64, len(points))
	sigma = make([]float64, len(points))
	if s.la == nil {
		for i := range sigma {
			sigma[i] = math.Inf(1)
		}
		return mu, sigma
	}
	for i, p := range points {
		mu[i], sigma[i] = s.Predict(p)
	}
	return mu, sigma
}

// ExpectedImprovement implements Surrogate.
func (s *SparseGP) ExpectedImprovement(p []float64, best float64) float64 {
	mu, sigma := s.Predict(p)
	return expectedImprovement(mu, sigma, best)
}

// ScoreCandidates implements Surrogate.
func (s *SparseGP) ScoreCandidates(points [][]float64, best float64, dst []float64) []float64 {
	if cap(dst) < len(points) {
		dst = make([]float64, len(points))
	}
	dst = dst[:len(points)]
	if s.la == nil {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for i, p := range points {
		dst[i] = s.ExpectedImprovement(p, best)
	}
	return dst
}

// LCB implements Surrogate.
func (s *SparseGP) LCB(p []float64, beta float64) float64 {
	mu, sigma := s.Predict(p)
	return mu - beta*sigma
}

func (s *SparseGP) growWorkspaces(m int) {
	if cap(s.wsK) < m {
		s.wsK = make([]float64, m)
		s.wsU = make([]float64, m)
		s.wsW = make([]float64, m)
	}
}

// baseKernelAt evaluates the unit-signal-variance kernel at squared
// distance d2 — the same arithmetic as the exact GP's baseKernelInto, so
// the tiers agree on kernel values bit-for-bit.
func baseKernelAt(kernel KernelKind, d2, l float64) float64 {
	switch kernel {
	case Matern52:
		r := math.Sqrt(d2) / l
		s5 := sqrt5 * r
		return (1 + s5 + 5*r*r/3) * math.Exp(-s5)
	default:
		return math.Exp(-d2 / (2 * l * l))
	}
}
