package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite reports that a Cholesky factorization failed.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L with A = L·Lᵀ.
type Cholesky struct {
	L *Matrix
}

// NewCholesky factors the symmetric positive-definite matrix a. Only the
// lower triangle of a is read. If factorization fails (a is not positive
// definite within floating point), it returns ErrNotPositiveDefinite; Gaussian
// process code responds by increasing the jitter on the diagonal.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.R != a.C {
		return nil, errors.New("linalg: cholesky of non-square matrix")
	}
	l := New(a.R, a.R)
	if err := CholeskyInto(a, l); err != nil {
		return nil, err
	}
	return &Cholesky{L: l}, nil
}

// dot4 returns Σ a[i]·b[i] accumulated in four interleaved partial sums.
// The interleaving breaks the floating-point add dependency chain (the
// Cholesky inner-loop bottleneck) while keeping a fixed, deterministic
// summation order. CholeskyInto and PackedCholesky.ExtendRows share it so a
// bordered factor stays bit-identical to a full refactorization.
func dot4(a, b []float64) float64 {
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// CholeskyInto factors a into the preallocated n×n matrix l, allocating
// nothing. It is the workspace-reuse form of NewCholesky for hot loops that
// factor many same-sized matrices (the GP hyperparameter grid). The strict
// upper triangle of l is zeroed; arithmetic order matches NewCholesky exactly,
// so the two produce bit-identical factors.
func CholeskyInto(a, l *Matrix) error {
	n := a.R
	if a.C != n || l.R != n || l.C != n {
		return errors.New("linalg: cholesky dimension mismatch")
	}
	ad, ld := a.Data, l.Data
	for j := 0; j < n; j++ {
		rowj := ld[j*n : j*n+j]
		d := ad[j*n+j] - dot4(rowj, rowj)
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		ld[j*n+j] = d
		for k := j + 1; k < n; k++ {
			ld[j*n+k] = 0
		}
		for i := j + 1; i < n; i++ {
			// dot4(ld[i*n:i*n+j], rowj) inlined by hand (a closed loop keeps
			// the callee out of the inliner); accumulation order must stay
			// identical to dot4 so ExtendRows remains bit-compatible.
			ri := ld[i*n : i*n+j]
			ri = ri[:len(rowj)]
			var s0, s1, s2, s3 float64
			k := 0
			for ; k+4 <= len(ri); k += 4 {
				s0 += ri[k] * rowj[k]
				s1 += ri[k+1] * rowj[k+1]
				s2 += ri[k+2] * rowj[k+2]
				s3 += ri[k+3] * rowj[k+3]
			}
			for ; k < len(ri); k++ {
				s0 += ri[k] * rowj[k]
			}
			ld[i*n+j] = (ad[i*n+j] - ((s0 + s1) + (s2 + s3))) / d
		}
	}
	return nil
}

// SolveVec solves A·x = b given the factorization.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	x := make([]float64, len(b))
	c.SolveVecInto(x, b)
	return x
}

// SolveLowerInto solves the triangular system L·y = b into the preallocated
// dst (forward substitution only). The GP grid search uses it to get the
// quadratic form yᵀA⁻¹y = ‖L⁻¹y‖² without the backward half of a full solve.
// dst and b may alias.
func (c *Cholesky) SolveLowerInto(dst, b []float64) {
	n := c.L.R
	ld := c.L.Data
	for i := 0; i < n; i++ {
		s := b[i] - dot4(ld[i*n:i*n+i], dst[:i])
		dst[i] = s / ld[i*n+i]
	}
}

// SolveVecInto solves A·x = b into the preallocated dst, allocating nothing.
// dst and b may alias.
func (c *Cholesky) SolveVecInto(dst, b []float64) {
	n := c.L.R
	ld := c.L.Data
	c.SolveLowerInto(dst, b)
	// Backward in place: Lᵀ·x = y. dst[i] still holds y[i] when read.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*n+i] * dst[k]
		}
		dst[i] = s / ld[i*n+i]
	}
}

// LogDet returns log|A| = 2·Σ log L[i][i]. The diagonal entries are
// multiplied in chunks of 16 so one Log call covers 16 of them; GP factor
// diagonals sit in [1e-4, ~1e1], far from over/underflow at that chunk size.
func (c *Cholesky) LogDet() float64 {
	n := c.L.R
	ld := c.L.Data
	var s float64
	prod := 1.0
	count := 0
	for i := 0; i < n; i++ {
		prod *= ld[i*n+i]
		if count++; count == 16 {
			s += math.Log(prod)
			prod, count = 1.0, 0
		}
	}
	if prod != 1.0 {
		s += math.Log(prod)
	}
	return 2 * s
}

// CholeskyWithJitter factors a, adding exponentially growing jitter to the
// diagonal until the factorization succeeds (up to maxTries). It returns the
// factorization and the jitter that was needed.
func CholeskyWithJitter(a *Matrix, jitter float64, maxTries int) (*Cholesky, float64, error) {
	cur := a.Clone()
	added := 0.0
	for try := 0; try < maxTries; try++ {
		ch, err := NewCholesky(cur)
		if err == nil {
			return ch, added, nil
		}
		step := jitter * math.Pow(10, float64(try))
		cur.AddDiag(step)
		added += step
	}
	return nil, added, ErrNotPositiveDefinite
}

// SolveRidge solves the ridge-regularized least squares problem
// (XᵀX + λI)·β = Xᵀy and returns β. λ must be ≥ 0; with λ = 0 the system may
// be singular, in which case a tiny jitter is applied automatically.
func SolveRidge(x *Matrix, y []float64, lambda float64) ([]float64, error) {
	xt := x.T()
	a := xt.Mul(x).AddDiag(lambda)
	b := xt.MulVec(y)
	ch, _, err := CholeskyWithJitter(a, 1e-10, 10)
	if err != nil {
		return nil, err
	}
	return ch.SolveVec(b), nil
}

// SolveNNLS solves min ‖X·β − y‖ subject to β ≥ 0 using projected
// coordinate descent. Ernest-style scale-out models require non-negative
// coefficients so each cost term contributes physically plausible time.
func SolveNNLS(x *Matrix, y []float64, iters int) []float64 {
	n, d := x.R, x.C
	beta := make([]float64, d)
	// Precompute column norms and Xᵀy.
	colSq := make([]float64, d)
	for j := 0; j < d; j++ {
		for i := 0; i < n; i++ {
			v := x.At(i, j)
			colSq[j] += v * v
		}
	}
	resid := make([]float64, n)
	copy(resid, y)
	for it := 0; it < iters; it++ {
		for j := 0; j < d; j++ {
			if colSq[j] == 0 {
				continue
			}
			// Partial residual including current beta_j contribution.
			var g float64
			for i := 0; i < n; i++ {
				g += x.At(i, j) * resid[i]
			}
			nb := beta[j] + g/colSq[j]
			if nb < 0 {
				nb = 0
			}
			delta := nb - beta[j]
			if delta != 0 {
				for i := 0; i < n; i++ {
					resid[i] -= delta * x.At(i, j)
				}
				beta[j] = nb
			}
		}
	}
	return beta
}
