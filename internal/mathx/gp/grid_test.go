package gp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx/linalg"
)

// assertSameModel requires got and want to agree bit for bit: selected
// hyperparameters, posterior, expected improvement and batched scores.
func assertSameModel(t *testing.T, step string, got, want *GP, probes [][]float64, best float64) {
	t.Helper()
	if got.Hyper != want.Hyper {
		t.Fatalf("%s: hyperparameters %+v, fresh fit selects %+v", step, got.Hyper, want.Hyper)
	}
	if got.TrainingSize() != want.TrainingSize() {
		t.Fatalf("%s: training size %d vs %d", step, got.TrainingSize(), want.TrainingSize())
	}
	for _, p := range probes {
		mu, sigma := got.Predict(p)
		wmu, wsigma := want.Predict(p)
		if math.Float64bits(mu) != math.Float64bits(wmu) || math.Float64bits(sigma) != math.Float64bits(wsigma) {
			t.Fatalf("%s: Predict(%v) = (%v, %v), fresh fit (%v, %v)", step, p, mu, sigma, wmu, wsigma)
		}
		if ei, wei := got.ExpectedImprovement(p, best), want.ExpectedImprovement(p, best); math.Float64bits(ei) != math.Float64bits(wei) {
			t.Fatalf("%s: EI(%v) = %v, fresh fit %v", step, p, ei, wei)
		}
	}
	scores := got.ScoreCandidates(probes, best, nil)
	wscores := want.ScoreCandidates(probes, best, nil)
	for i := range scores {
		if math.Float64bits(scores[i]) != math.Float64bits(wscores[i]) {
			t.Fatalf("%s: ScoreCandidates[%d] = %v, fresh fit %v", step, i, scores[i], wscores[i])
		}
	}
}

// keptFactors counts the grid candidates whose factor the cache holds for
// all n training rows.
func keptFactors(g *GP, n int) int {
	if g.grid == nil {
		return 0
	}
	kept := 0
	for _, f := range g.grid.factors {
		if f.N == n {
			kept++
		}
	}
	return kept
}

func gridProbes(d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	probes := make([][]float64, 12)
	for i := range probes {
		probes[i] = make([]float64, d)
		for j := range probes[i] {
			probes[i][j] = rng.Float64()
		}
	}
	return probes
}

// TestGridCacheMatchesFreshFits refits one GP through the cases a tuning
// session and a careless caller produce — growth by 1 and by 4 rows,
// runs of single-row refits, a changed earlier row, a shrunk set, exact
// duplicates, a row that makes every candidate indefinite, crossing the
// optimize threshold, and crossing gridCacheMaxN — and requires every step
// to match a fresh GP fit on the same data bit for bit.
func TestGridCacheMatchesFreshFits(t *testing.T) {
	for _, kernel := range []KernelKind{SquaredExponential, Matern52} {
		const d = 4
		xs, ys := goldenData(48, d, 31)
		probes := gridProbes(d, 32)
		g := New(kernel)
		// fit refits g on (x, y) and checks it against a fresh GP. wantKept
		// is how many candidate factors the cache must hold afterwards.
		fit := func(step string, x [][]float64, y []float64, wantKept int) {
			t.Helper()
			fresh := New(kernel)
			wantErr := fresh.Fit(x, y, true)
			if err := g.Fit(x, y, true); (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: Fit error %v, fresh fit error %v", step, err, wantErr)
			}
			assertSameModel(t, step, g, fresh, probes, y[0])
			if got := keptFactors(g, len(x)); got != wantKept {
				t.Fatalf("%s: cache holds %d factors, want %d", step, got, wantKept)
			}
		}

		// A GP fit once keeps no factors; refits over extended rows do.
		fit("first fit", xs[:8], ys[:8], 0)
		fit("grow by 1", xs[:9], ys[:9], gridSize)
		fit("grow by 4", xs[:13], ys[:13], gridSize)
		fit("refit unchanged rows", xs[:13], ys[:13], gridSize)
		for i := 14; i <= 16; i++ {
			fit("grow by 1 again", xs[:i], ys[:i], gridSize)
		}
		fit("grow after single-row refits", xs[:17], ys[:17], gridSize)
		fit("grow by 4 again", xs[:21], ys[:21], gridSize)

		changed := append([][]float64(nil), xs[:25]...)
		changed[3] = []float64{0.9, 0.1, 0.5, 0.5}
		fit("changed earlier row", changed, ys[:25], gridSize)
		fit("shrunk set", xs[:20], ys[:20], gridSize)
		fit("grow after shrink", xs[:24], ys[:24], gridSize)

		// Exact duplicates make the base kernel matrices singular; the noise
		// floor keeps every candidate positive definite.
		dup := append(append([][]float64(nil), xs[:24]...), xs[0], xs[1], xs[0], xs[1])
		dupY := append(append([]float64(nil), ys[:24]...), ys[0], ys[1], ys[0], ys[1])
		fit("duplicate rows", dup, dupY, gridSize)

		// A NaN row makes every candidate indefinite even with jitter: the
		// fit fails as a fresh one does and the cache drops every factor.
		bad := append(append([][]float64(nil), dup...), []float64{math.NaN(), 0.5, 0.5, 0.5})
		badY := append(append([]float64(nil), dupY...), 4)
		fit("indefinite extension", bad, badY, 0)
		fit("refit after failure", dup, dupY, gridSize)

		// Past the optimize threshold the cache is dropped; the GP keeps the
		// hyperparameters it selected last, as any GP fit without a search.
		fixed := New(kernel)
		fixed.Hyper = g.Hyper
		if err := fixed.Fit(xs[:32], ys[:32], false); err != nil {
			t.Fatal(err)
		}
		if err := g.Fit(xs[:32], ys[:32], false); err != nil {
			t.Fatal(err)
		}
		assertSameModel(t, "optimize off", g, fixed, probes, ys[0])
		if g.grid != nil {
			t.Fatal("a fit without hyperparameter search kept the grid cache")
		}
		fit("optimize on again", xs[:36], ys[:36], 0)
		fit("grow after re-enabling", xs[:40], ys[:40], gridSize)

		// Past gridCacheMaxN rows no factor is kept; below it they return.
		big, bigY := goldenData(gridCacheMaxN+4, d, 33)
		fit("past the cache bound", big, bigY, 0)
		fit("back under the bound", big[:gridCacheMaxN-4], bigY[:gridCacheMaxN-4], 0)
		fit("grow under the bound", big[:gridCacheMaxN], bigY[:gridCacheMaxN], gridSize)
	}
}

// TestGridJitterCandidatesRefactor drives the grid over a squared-distance
// matrix no point set has: rows 0, 1 and 2 stand for one point, except that
// 0 and 2 sit 0.2 apart, so the base kernels are indefinite and the
// low-noise candidates factor only with jitter, or not at all. Such
// candidates must be refactored from scratch on every refit while the rest
// are bordered, and the selection must match a GP that refactors
// everything.
func TestGridJitterCandidatesRefactor(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(41))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	pts[1], pts[2] = pts[0], pts[0]
	d2 := linalg.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := pts[i][0]-pts[j][0], pts[i][1]-pts[j][1]
			d2.Set(i, j, a*a+b*b)
		}
	}
	d2.Set(0, 2, 0.04)
	d2.Set(2, 0, 0.04)
	ys := make([]float64, n)
	for i := range ys {
		ys[i] = rng.NormFloat64()
	}
	// grid runs the hyperparameter search on the leading m×m block, with
	// one distinct input row per point so the cache sees a growing prefix.
	grid := func(g *GP, m int) {
		g.x = linalg.New(m, 1)
		for i := range g.x.Data {
			g.x.Data[i] = float64(i)
		}
		g.d2 = linalg.New(m, m)
		for i := 0; i < m; i++ {
			copy(g.d2.Data[i*m:(i+1)*m], d2.Data[i*n:i*n+m])
		}
		g.ys = ys[:m]
		g.optimizeHypers()
	}
	for _, kernel := range []KernelKind{SquaredExponential, Matern52} {
		g := New(kernel)
		for m := 3; m <= n; m += 3 {
			fresh := New(kernel)
			grid(fresh, m)
			grid(g, m)
			if g.Hyper != fresh.Hyper {
				t.Fatalf("kernel %v, m=%d: hyperparameters %+v, fresh %+v", kernel, m, g.Hyper, fresh.Hyper)
			}
			if m == 3 {
				continue // a first fit keeps no factors
			}
			kept := keptFactors(g, m)
			if kept == 0 || kept == gridSize {
				t.Fatalf("kernel %v, m=%d: %d of %d factors kept; want only the jitter-free ones", kernel, m, kept, gridSize)
			}
			for i, f := range g.grid.factors {
				if f.N != 0 && f.N != m {
					t.Fatalf("kernel %v, m=%d: factor %d covers %d rows", kernel, m, i, f.N)
				}
			}
		}
	}
}
