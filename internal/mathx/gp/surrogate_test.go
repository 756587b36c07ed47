package gp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx/linalg"
)

// testSurface is a smooth deterministic function on [0,1]² the convergence
// tests model.
func testSurface(x []float64) float64 {
	return math.Sin(3*x[0]) + 0.5*math.Cos(5*x[1]) + x[0]*x[1]
}

// surfaceData samples n points of testSurface at fixed pseudo-random inputs.
func surfaceData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		ys[i] = testSurface(xs[i])
	}
	return xs, ys
}

func testGrid() [][]float64 {
	var pts [][]float64
	for i := 0; i <= 4; i++ {
		for j := 0; j <= 4; j++ {
			pts = append(pts, []float64{float64(i) / 4, float64(j) / 4})
		}
	}
	return pts
}

func TestKCenterDeterministicAscending(t *testing.T) {
	xs, _ := surfaceData(60, 7)
	x := linalg.FromRows(xs)
	a := kCenterIndices(x, 12)
	b := kCenterIndices(x, 12)
	if len(a) != 12 {
		t.Fatalf("selected %d inducing points, want 12", len(a))
	}
	seen := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("selection not deterministic: %v vs %v", a, b)
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("indices not strictly ascending: %v", a)
		}
		if seen[a[i]] {
			t.Fatalf("duplicate index %d in %v", a[i], a)
		}
		seen[a[i]] = true
	}
	// m ≥ n returns every index.
	all := kCenterIndices(x, 100)
	if len(all) != 60 {
		t.Fatalf("m≥n selected %d, want all 60", len(all))
	}
}

// TestSparseMatchesExactAtFullInducing pins the m → n limit: with every
// training point inducing, FITC's correction vanishes and the sparse GP must
// agree with the exact GP on both kernels.
func TestSparseMatchesExactAtFullInducing(t *testing.T) {
	xs, ys := surfaceData(40, 1)
	for _, kernel := range []KernelKind{SquaredExponential, Matern52} {
		ex := New(kernel)
		if err := ex.Fit(xs, ys, false); err != nil {
			t.Fatal(err)
		}
		sp := NewSparse(kernel)
		sp.MaxInducing = len(xs)
		if err := sp.Fit(xs, ys, false); err != nil {
			t.Fatal(err)
		}
		if sp.InducingCount() != len(xs) {
			t.Fatalf("inducing count %d, want %d", sp.InducingCount(), len(xs))
		}
		for _, p := range testGrid() {
			em, es := ex.Predict(p)
			sm, ss := sp.Predict(p)
			if math.Abs(em-sm) > 1e-5 || math.Abs(es-ss) > 1e-4 {
				t.Fatalf("kernel %v at %v: exact (%v, %v) vs sparse m=n (%v, %v)",
					kernel, p, em, es, sm, ss)
			}
		}
	}
}

// TestSparseConvergesWithInducing checks the approximation tightens as the
// inducing set grows toward n.
func TestSparseConvergesWithInducing(t *testing.T) {
	xs, ys := surfaceData(80, 2)
	ex := New(SquaredExponential)
	if err := ex.Fit(xs, ys, false); err != nil {
		t.Fatal(err)
	}
	rmse := func(m int) float64 {
		sp := NewSparse(SquaredExponential)
		sp.MaxInducing = m
		if err := sp.Fit(xs, ys, false); err != nil {
			t.Fatal(err)
		}
		var s float64
		pts := testGrid()
		for _, p := range pts {
			em, _ := ex.Predict(p)
			sm, _ := sp.Predict(p)
			s += (em - sm) * (em - sm)
		}
		return math.Sqrt(s / float64(len(pts)))
	}
	coarse, fine := rmse(8), rmse(64)
	if fine > coarse {
		t.Fatalf("sparse error grew with inducing points: m=8 %v, m=64 %v", coarse, fine)
	}
	if fine > 0.05 {
		t.Fatalf("sparse m=64 too far from exact: rmse %v", fine)
	}
}

// TestSparseWorkerCountInvariance pins the parallel-fit determinism
// contract: the fitted model's predictions are bit-identical at any worker
// count.
func TestSparseWorkerCountInvariance(t *testing.T) {
	xs, ys := surfaceData(600, 8)
	fit := func(workers int) []float64 {
		sp := NewSparse(SquaredExponential)
		sp.Workers = workers
		if err := sp.Fit(xs, ys, false); err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, p := range testGrid() {
			mu, sigma := sp.Predict(p)
			out = append(out, mu, sigma)
		}
		return out
	}
	ref := fit(1)
	for _, w := range []int{2, 4, 7} {
		got := fit(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: prediction bits drifted at %d: %v vs %v", w, i, got[i], ref[i])
			}
		}
	}
}

// TestUnfittedSurrogateGuards pins the shared pre-Fit contract across both
// tiers: (0, +Inf) predictions, zero EI scores, no panics — the
// regression test for the batched-path guard fix.
func TestUnfittedSurrogateGuards(t *testing.T) {
	pts := [][]float64{{0.2, 0.8}, {0.5, 0.5}}
	for _, s := range []Surrogate{New(Matern52), NewSparse(Matern52)} {
		mu, sigma := s.Predict(pts[0])
		if mu != 0 || !math.IsInf(sigma, 1) {
			t.Fatalf("%s: unfitted Predict = (%v, %v), want (0, +Inf)", s.Tier(), mu, sigma)
		}
		mus, sigmas := s.PredictAll(pts)
		for i := range pts {
			if mus[i] != 0 || !math.IsInf(sigmas[i], 1) {
				t.Fatalf("%s: unfitted PredictAll[%d] = (%v, %v)", s.Tier(), i, mus[i], sigmas[i])
			}
		}
		if ei := s.ExpectedImprovement(pts[0], 1); ei != 0 {
			t.Fatalf("%s: unfitted EI = %v, want 0", s.Tier(), ei)
		}
		scores := s.ScoreCandidates(pts, 1, nil)
		for i, v := range scores {
			if v != 0 {
				t.Fatalf("%s: unfitted ScoreCandidates[%d] = %v, want 0", s.Tier(), i, v)
			}
		}
		if n := s.TrainingSize(); n != 0 {
			t.Fatalf("%s: unfitted TrainingSize = %d", s.Tier(), n)
		}
	}
}

func TestSurrogateTierNames(t *testing.T) {
	if tier := New(Matern52).Tier(); tier != "exact" {
		t.Fatalf("exact tier = %q", tier)
	}
	if tier := NewSparse(Matern52).Tier(); tier != "sparse" {
		t.Fatalf("sparse tier = %q", tier)
	}
}

func TestSurrogateFitErrors(t *testing.T) {
	cases := []struct {
		name string
		x    [][]float64
		y    []float64
	}{
		{"length mismatch", [][]float64{{1}}, []float64{1, 2}},
		{"empty", nil, nil},
		{"ragged", [][]float64{{1, 2}, {3}}, []float64{1, 2}},
	}
	for _, c := range cases {
		for _, s := range []Surrogate{New(Matern52), NewSparse(Matern52)} {
			if err := s.Fit(c.x, c.y, false); err == nil {
				t.Fatalf("%s/%s: Fit accepted invalid training set", s.Tier(), c.name)
			}
		}
	}
}

// TestSurrogateOptimizeSelectsHypers exercises the subset hyperparameter
// search: optimize=true must change the defaults on an informative surface
// and not degrade the fit.
func TestSurrogateOptimizeSelectsHypers(t *testing.T) {
	xs, ys := surfaceData(120, 12)
	for _, s := range []Surrogate{NewSparse(SquaredExponential)} {
		if err := s.Fit(xs, ys, true); err != nil {
			t.Fatal(err)
		}
		// The tuned model should interpolate the training data sensibly.
		var worst float64
		for i, p := range xs {
			mu, _ := s.Predict(p)
			if e := math.Abs(mu - ys[i]); e > worst {
				worst = e
			}
		}
		if worst > 0.5 {
			t.Fatalf("%s: optimized fit interpolates poorly, worst abs err %v", s.Tier(), worst)
		}
	}
}

// TestExactGPLargeRefit fits the exact GP well past the sizes a tuning
// session reaches and checks the factorization still conditions correctly
// (training-point interpolation with low noise).
func TestExactGPLargeRefit(t *testing.T) {
	xs, ys := surfaceData(300, 13)
	g := New(SquaredExponential)
	g.Hyper = Hyper{SignalVar: 1, Lengthscale: 0.3, NoiseStd: 0.01}
	if err := g.Fit(xs, ys, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i += 37 {
		mu, _ := g.Predict(xs[i])
		if math.Abs(mu-ys[i]) > 0.05 {
			t.Fatalf("large fit interpolates poorly at %d: %v vs %v", i, mu, ys[i])
		}
	}
}

// TestSparseAcquisitions exercises the acquisition helpers on fitted
// sparse and exact models.
func TestSparseAcquisitions(t *testing.T) {
	xs, ys := surfaceData(30, 14)
	sp := NewSparse(SquaredExponential)
	sp.MaxInducing = 12
	if err := sp.Fit(xs, ys, false); err != nil {
		t.Fatal(err)
	}
	ex := New(SquaredExponential)
	if err := ex.Fit(xs, ys, false); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Surrogate{sp, ex} {
		p := []float64{0.3, 0.7}
		if ei := s.ExpectedImprovement(p, 2); !(ei >= 0) || math.IsInf(ei, 0) {
			t.Fatalf("%s: EI = %v", s.Tier(), ei)
		}
		mu, sigma := s.Predict(p)
		if lcb := s.LCB(p, 2); math.Abs(lcb-(mu-2*sigma)) > 1e-12 {
			t.Fatalf("%s: LCB = %v, want %v", s.Tier(), lcb, mu-2*sigma)
		}
		scores := s.ScoreCandidates([][]float64{p, {0.1, 0.1}}, 2, make([]float64, 1))
		if len(scores) != 2 {
			t.Fatalf("%s: ScoreCandidates len %d", s.Tier(), len(scores))
		}
	}
}
