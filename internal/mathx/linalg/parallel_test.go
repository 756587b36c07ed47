package linalg

import (
	"math/rand"
	"testing"
)

func TestSolveLowerEachMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, rows := 160, 300
	a := randSPD(n, rng)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := New(rows, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	want := New(rows, n)
	for i := 0; i < rows; i++ {
		ch.SolveLowerInto(want.Data[i*n:(i+1)*n], b.Data[i*n:(i+1)*n])
	}
	for _, w := range []int{1, 2, 5} {
		got := New(rows, n)
		ch.SolveLowerEach(got, b, w)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: bit drift at flat index %d", w, i)
			}
		}
	}
}
