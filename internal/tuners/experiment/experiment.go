// Package experiment implements the survey's fourth category: tuners that
// learn from actual runs of the system, guided by experimental design and
// search algorithms.
//
//   - SARD (Debnath et al., ICDE'08 workshop): Plackett–Burman two-level
//     screening with foldover ranks parameters by main-effect magnitude,
//     then the budget concentrates on the top-ranked few.
//   - AdaptiveSampling (Babu et al., HotOS 2009): bootstrap with random
//     experiments, then balance exploitation (sample near the incumbent)
//     against exploration (sample far from everything seen).
//   - ITuned (Duan, Thummala & Babu, PVLDB 2009): Latin-hypercube
//     initialization, a Gaussian-process response surface, and Expected
//     Improvement to plan each next experiment.
//   - Baselines: pure random search, full-factorial grid over the top-impact
//     parameters, and recursive random search.
//
// Experiment-driven tuning finds genuinely good configurations on the real
// system — its Table-1 strength — at the price of many real runs, which the
// budget accounting here makes visible.
package experiment

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"repro/internal/mathx/gp"
	"repro/internal/mathx/opt"
	"repro/internal/mathx/sample"
	"repro/internal/tune"
)

// Random evaluates uniformly random configurations — the floor every other
// approach must beat.
type Random struct {
	Seed int64
}

// Name implements tune.Tuner.
func (t *Random) Name() string { return "experiment/random" }

// Tune implements tune.Tuner via the generic ask/tell adapter.
func (t *Random) Tune(ctx context.Context, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	p, err := t.NewProposer(target, b)
	if err != nil {
		return nil, err
	}
	return tune.DriveProposer(ctx, t.Name(), target, b, p)
}

// Grid sweeps a full factorial grid over the TopK highest-impact parameters
// (others stay at defaults), with as many levels as the budget affords.
type Grid struct {
	TopK int
}

// Name implements tune.Tuner.
func (t *Grid) Name() string { return "experiment/grid" }

// Tune implements tune.Tuner via the generic ask/tell adapter.
func (t *Grid) Tune(ctx context.Context, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	p, err := t.NewProposer(target, b)
	if err != nil {
		return nil, err
	}
	return tune.DriveProposer(ctx, t.Name(), target, b, p)
}

// RRS wraps recursive random search over real runs.
type RRS struct {
	Seed int64
}

// Name implements tune.Tuner.
func (t *RRS) Name() string { return "experiment/rrs" }

// Tune implements tune.Tuner.
func (t *RRS) Tune(ctx context.Context, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	rng := rand.New(rand.NewSource(t.Seed))
	space := target.Space()
	s := tune.NewSession(ctx, target, b)
	var runErr error
	opt.RecursiveRandomSearch(func(x []float64) float64 {
		if s.Exhausted() || runErr != nil {
			return math.Inf(1)
		}
		res, err := s.Run(space.FromVector(x))
		if err != nil {
			if err != tune.ErrBudgetExhausted {
				runErr = err
			}
			return math.Inf(1)
		}
		return res.Objective()
	}, space.Dim(), b.Trials, rng)
	if runErr != nil {
		return nil, runErr
	}
	return s.Finish(t.Name(), tune.Config{}), nil
}

// SARD ranks parameters with a Plackett–Burman screening design (plus
// foldover) and then tunes only the influential ones with the remaining
// budget.
type SARD struct {
	Seed int64
	// TopK parameters to tune after screening (default 4).
	TopK int
	// Lo and Hi are the unit-cube positions of the two levels (default
	// 0.15/0.85).
	Lo, Hi float64

	// LastRanking records the most recent screening ranking (parameter
	// names, most important first) for inspection by the harness.
	LastRanking []string
	// LastEffects records |main effect| per parameter, aligned with the
	// space's parameter order.
	LastEffects []float64
}

// NewSARD returns a SARD tuner with defaults.
func NewSARD(seed int64) *SARD { return &SARD{Seed: seed, TopK: 4, Lo: 0.15, Hi: 0.85} }

// Name implements tune.Tuner.
func (t *SARD) Name() string { return "experiment/sard" }

// Screen runs only the screening phase and returns the parameter ranking.
func (t *SARD) Screen(ctx context.Context, target tune.Target, b tune.Budget) ([]string, *tune.Session, error) {
	space := target.Space()
	d := space.Dim()
	design := sample.Foldover(sample.PlackettBurman(d))
	s := tune.NewSession(ctx, target, b)
	var rows [][]int
	var ys []float64
	for _, row := range design {
		if s.Exhausted() {
			break
		}
		point := sample.LevelsToPoint(row, t.Lo, t.Hi)
		res, err := s.Run(space.FromVector(point))
		if err != nil {
			if err == tune.ErrBudgetExhausted {
				break
			}
			return nil, nil, err
		}
		rows = append(rows, row)
		ys = append(ys, res.Objective())
	}
	// Main effect of parameter j: mean(y | +) − mean(y | −).
	effects := make([]float64, d)
	for j := 0; j < d; j++ {
		var hi, lo, nHi, nLo float64
		for i, row := range rows {
			if row[j] > 0 {
				hi += ys[i]
				nHi++
			} else {
				lo += ys[i]
				nLo++
			}
		}
		if nHi > 0 && nLo > 0 {
			effects[j] = math.Abs(hi/nHi - lo/nLo)
		}
	}
	t.LastEffects = effects
	names := space.Names()
	order := make([]int, d)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return effects[order[a]] > effects[order[b]] })
	ranking := make([]string, d)
	for i, j := range order {
		ranking[i] = names[j]
	}
	t.LastRanking = ranking
	return ranking, s, nil
}

// Tune implements tune.Tuner: screen, then recursive random search over the
// top-ranked parameters only.
func (t *SARD) Tune(ctx context.Context, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	ranking, s, err := t.Screen(ctx, target, b)
	if err != nil {
		return nil, err
	}
	space := target.Space()
	topK := t.TopK
	if topK <= 0 {
		topK = 4
	}
	if topK > len(ranking) {
		topK = len(ranking)
	}
	idx := make([]int, topK)
	for i, name := range ranking[:topK] {
		idx[i] = space.IndexOf(name)
	}
	bestCfg, _ := s.Best()
	base := bestCfg.Vector()
	rng := rand.New(rand.NewSource(t.Seed + 1))
	var runErr error
	opt.RecursiveRandomSearch(func(sub []float64) float64 {
		if s.Exhausted() || runErr != nil {
			return math.Inf(1)
		}
		x := append([]float64(nil), base...)
		for i, v := range sub {
			x[idx[i]] = v
		}
		res, err := s.Run(space.FromVector(x))
		if err != nil {
			if err != tune.ErrBudgetExhausted {
				runErr = err
			}
			return math.Inf(1)
		}
		return res.Objective()
	}, topK, s.Remaining(), rng)
	if runErr != nil {
		return nil, runErr
	}
	return s.Finish(t.Name(), tune.Config{}), nil
}

// AdaptiveSampling is the HotOS'09 experiment planner: bootstrap randomly,
// then alternate between exploiting near the incumbent and exploring the
// least-sampled region.
type AdaptiveSampling struct {
	Seed int64
	// Bootstrap is the number of initial random runs (default max(5, d)).
	Bootstrap int
	// ExploreFrac is the fraction of post-bootstrap trials spent exploring
	// (default 0.3).
	ExploreFrac float64
}

// NewAdaptiveSampling returns an adaptive-sampling tuner with defaults.
func NewAdaptiveSampling(seed int64) *AdaptiveSampling {
	return &AdaptiveSampling{Seed: seed, ExploreFrac: 0.3}
}

// Name implements tune.Tuner.
func (t *AdaptiveSampling) Name() string { return "experiment/adaptive-sampling" }

// Tune implements tune.Tuner.
func (t *AdaptiveSampling) Tune(ctx context.Context, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	space := target.Space()
	d := space.Dim()
	rng := rand.New(rand.NewSource(t.Seed))
	s := tune.NewSession(ctx, target, b)
	boot := t.Bootstrap
	if boot <= 0 {
		boot = d
		if boot < 5 {
			boot = 5
		}
	}
	var seen [][]float64
	for i := 0; i < boot && !s.Exhausted(); i++ {
		cfg := space.Random(rng)
		if _, err := s.Run(cfg); err != nil {
			if err == tune.ErrBudgetExhausted {
				break
			}
			return nil, err
		}
		seen = append(seen, cfg.Vector())
	}
	explore := t.ExploreFrac
	if explore <= 0 || explore >= 1 {
		explore = 0.3
	}
	radius := 0.2
	for !s.Exhausted() {
		var next []float64
		if rng.Float64() < explore {
			// Exploration: among candidates, pick the one farthest from
			// every seen sample (maximin).
			bestD := -1.0
			for c := 0; c < 32; c++ {
				cand := randPoint(d, rng)
				dist := math.Inf(1)
				for _, p := range seen {
					if dd := sqDist(cand, p); dd < dist {
						dist = dd
					}
				}
				if dist > bestD {
					bestD, next = dist, cand
				}
			}
		} else {
			// Exploitation: perturb the incumbent within a shrinking box.
			bestCfg, _ := s.Best()
			bv := bestCfg.Vector()
			next = make([]float64, d)
			for j := range next {
				next[j] = clamp01(bv[j] + (rng.Float64()*2-1)*radius)
			}
			radius = math.Max(0.03, radius*0.97)
		}
		if _, err := s.Run(space.FromVector(next)); err != nil {
			if err == tune.ErrBudgetExhausted {
				break
			}
			return nil, err
		}
		seen = append(seen, next)
	}
	return s.Finish(t.Name(), tune.Config{}), nil
}

// ITuned is the PVLDB'09 GP/EI experiment planner.
type ITuned struct {
	Seed int64
	// InitLHS is the Latin-hypercube initialization size (default
	// min(10, budget/3), at least 4).
	InitLHS int
	// Kernel selects the GP kernel (default Matérn 5/2).
	Kernel gp.KernelKind
	// Batch is how many candidates each GP round proposes (default 4);
	// the concurrent engine evaluates them in parallel.
	Batch int
	// Surrogate selects the GP surrogate tier and its switch-over
	// thresholds (nil = auto with defaults). Below the sparse threshold the
	// exact tier runs the historical code path, so event streams recorded
	// without a surrogate config stay byte-identical.
	Surrogate *tune.SurrogateConfig
}

// NewITuned returns an iTuned tuner with defaults.
func NewITuned(seed int64) *ITuned { return &ITuned{Seed: seed, Kernel: gp.Matern52} }

// Name implements tune.Tuner.
func (t *ITuned) Name() string { return "experiment/ituned" }

// Tune implements tune.Tuner via the generic ask/tell adapter.
func (t *ITuned) Tune(ctx context.Context, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	p, err := t.NewProposer(target, b)
	if err != nil {
		return nil, err
	}
	return tune.DriveProposer(ctx, t.Name(), target, b, p)
}

func randPoint(d int, rng *rand.Rand) []float64 {
	p := make([]float64, d)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Interface conformance checks.
var (
	_ tune.Tuner = (*Random)(nil)
	_ tune.Tuner = (*Grid)(nil)
	_ tune.Tuner = (*RRS)(nil)
	_ tune.Tuner = (*SARD)(nil)
	_ tune.Tuner = (*AdaptiveSampling)(nil)
	_ tune.Tuner = (*ITuned)(nil)
)
