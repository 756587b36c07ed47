package linalg

import (
	"math/rand"
	"testing"
)

// packedRows returns the packed lower-triangular rows lo..hi−1 of a.
func packedRows(a *Matrix, lo, hi int) []float64 {
	var out []float64
	for i := lo; i < hi; i++ {
		out = append(out, a.Data[i*a.C:i*a.C+i+1]...)
	}
	return out
}

// A packed factor grown by any sequence of row chunks must equal the
// dense CholeskyInto factor bit for bit, and so must its forward solve and
// log-determinant: the GP hyperparameter grid borders cached factors
// across refits under the repository's byte-identical stream guarantee.
func TestPackedCholeskyBitIdenticalToCholeskyInto(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		a := randSPD(n, rng)
		dense := &Cholesky{L: New(n, n)}
		if err := CholeskyInto(a, dense.L); err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		wantZ := make([]float64, n)
		dense.SolveLowerInto(wantZ, b)

		var p PackedCholesky
		for p.N < n {
			hi := min(n, p.N+1+rng.Intn(5))
			if err := p.ExtendRows(packedRows(a, p.N, hi)); err != nil {
				t.Fatalf("n=%d: extend to %d: %v", n, hi, err)
			}
			if p.N != hi {
				t.Fatalf("n=%d: factor covers %d rows, want %d", n, p.N, hi)
			}
		}
		got := p.Dense()
		for i := range dense.L.Data {
			if got.L.Data[i] != dense.L.Data[i] {
				t.Fatalf("n=%d: packed factor differs at flat index %d: %v vs %v", n, i, got.L.Data[i], dense.L.Data[i])
			}
		}
		z := make([]float64, n)
		p.SolveLowerInto(z, b)
		for i := range z {
			if z[i] != wantZ[i] {
				t.Fatalf("n=%d: forward solve differs at %d: %v vs %v", n, i, z[i], wantZ[i])
			}
		}
		if p.LogDet() != dense.LogDet() {
			t.Fatalf("n=%d: log-determinant %v vs %v", n, p.LogDet(), dense.LogDet())
		}
	}
}

// An indefinite border is rejected exactly when CholeskyInto rejects the
// whole matrix, and the factor is left as it was.
func TestPackedCholeskyRejectsIndefiniteBorder(t *testing.T) {
	a := FromRows([][]float64{{4, 2, 1}, {2, 3, 2}, {1, 2, 1}})
	if CholeskyInto(a, New(3, 3)) == nil {
		t.Fatal("test matrix should be indefinite")
	}
	var p PackedCholesky
	if err := p.ExtendRows(packedRows(a, 0, 2)); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), p.Data...)
	if err := p.ExtendRows(packedRows(a, 2, 3)); err != ErrNotPositiveDefinite {
		t.Fatalf("indefinite border: err = %v, want ErrNotPositiveDefinite", err)
	}
	if p.N != 2 || len(p.Data) != len(before) {
		t.Fatalf("failed border left N=%d, %d entries; want 2, %d", p.N, len(p.Data), len(before))
	}
	for i := range before {
		if p.Data[i] != before[i] {
			t.Fatalf("failed border changed entry %d", i)
		}
	}
	if err := p.ExtendRows([]float64{1, 2}); err == nil {
		t.Error("rows ending mid-row should error")
	}
	p.Reset()
	if p.N != 0 || len(p.Data) != 0 {
		t.Fatalf("Reset left N=%d, %d entries", p.N, len(p.Data))
	}
}
