package linalg

import (
	"errors"
	"math"
)

// PackedCholesky is a lower-triangular Cholesky factor stored packed by
// rows: row i holds its i+1 entries, diagonal last, at Data[i(i+1)/2:]. A
// factor only ever grows by appending rows, so bordering it by new rows
// reuses the prefix in place and Go's slice growth keeps reallocation
// geometric. Every entry is computed with CholeskyInto's arithmetic, in
// the same dot4 order, so a packed factor is bit-identical to the lower
// triangle of the dense factor of the same matrix — however many rows it
// was built from at a time.
type PackedCholesky struct {
	N    int       // rows covered
	Data []float64 // N(N+1)/2 entries
}

// Reset empties the factor, keeping its storage for reuse.
func (p *PackedCholesky) Reset() {
	p.N = 0
	p.Data = p.Data[:0]
}

// ExtendRows borders the factor by the packed lower-triangular rows
// N, N+1, …, m−1 of the bordered matrix: row i contributes its i+1 entries
// A[i][0..i], diagonal last, so len(rows) = m(m+1)/2 − N(N+1)/2. Each new
// row costs one forward substitution against the rows above it, O(m²),
// against O(m³) for refactorizing. From an empty factor it factors the
// whole matrix. When the bordered matrix is not positive definite it
// returns ErrNotPositiveDefinite — exactly when CholeskyInto would — and
// leaves the factor unchanged.
func (p *PackedCholesky) ExtendRows(rows []float64) error {
	start, n0, m := len(p.Data), p.N, p.N
	for end := start; end < start+len(rows); end += m {
		m++
	}
	if m*(m+1)/2 != start+len(rows) {
		return errors.New("linalg: packed rows do not end on a row boundary")
	}
	p.Data = append(p.Data, rows...)
	d := p.Data
	// Column by column, as CholeskyInto runs: the new rows' entries in one
	// column are independent of each other, so their divisions overlap
	// instead of forming one dependency chain along a row.
	for j, offj := 0, 0; j < m; j, offj = j+1, offj+j+1 {
		rowj := d[offj : offj+j]
		if j >= n0 {
			s := d[offj+j] - dot4(rowj, rowj)
			if s <= 0 || math.IsNaN(s) {
				p.Data = d[:start]
				return ErrNotPositiveDefinite
			}
			d[offj+j] = math.Sqrt(s)
		}
		dj := d[offj+j]
		i := max(j+1, n0)
		for off := i * (i + 1) / 2; i < m; i, off = i+1, off+i+1 {
			// dot4(ri, rowj) inlined by hand, as in CholeskyInto; the
			// accumulation order must stay identical to dot4's.
			ri := d[off : off+j]
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
			d[off+j] = (d[off+j] - ((s0 + s1) + (s2 + s3))) / dj
		}
	}
	p.N = m
	return nil
}

// SolveLowerInto solves L·dst = b by forward substitution, with the same
// arithmetic as Cholesky.SolveLowerInto. dst and b may alias.
func (p *PackedCholesky) SolveLowerInto(dst, b []float64) {
	d := p.Data
	for i, off := 0, 0; i < p.N; i, off = i+1, off+i+1 {
		s := b[i] - dot4(d[off:off+i], dst[:i])
		dst[i] = s / d[off+i]
	}
}

// LogDet returns log|A| = 2·Σ log L[i][i], with Cholesky.LogDet's chunked
// arithmetic.
func (p *PackedCholesky) LogDet() float64 {
	var s float64
	prod := 1.0
	count := 0
	for i, off := 0, 0; i < p.N; i, off = i+1, off+i+1 {
		prod *= p.Data[off+i]
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

// Dense returns the factor as a dense Cholesky with a zero strict upper
// triangle — the same matrix CholeskyInto writes.
func (p *PackedCholesky) Dense() *Cholesky {
	n := p.N
	l := New(n, n)
	for i, off := 0, 0; i < n; i, off = i+1, off+i+1 {
		copy(l.Data[i*n:i*n+i+1], p.Data[off:off+i+1])
	}
	return &Cholesky{L: l}
}
