package repro

// One benchmark per paper artifact (see DESIGN.md §3 and EXPERIMENTS.md):
// each regenerates the corresponding table/claim with fast options and
// reports headline numbers as benchmark metrics, plus ablation benches for
// the design choices the tuning algorithms make. Run with:
//
//	go test -bench=. -benchmem
import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/mathx/gp"
	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/tune"
	"repro/internal/tuners/experiment"
	"repro/internal/tuners/ml"
	"repro/internal/workload"
)

func benchOpts(i int) bench.Options {
	return bench.Options{Seed: int64(42 + i), Budget: 12, Fast: true}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run(name, benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMotivation regenerates E1 (§1): misconfiguration degradation and
// tuning headroom.
func BenchmarkMotivation(b *testing.B) { runExperiment(b, "motivation") }

// BenchmarkTable1 regenerates E2: the six-category comparison of Table 1.
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2 regenerates E3: the eleven DBMS approaches of Table 2.
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkHadoopGap regenerates E4 (§2.3): the 3.1–6.5× parallel-DB gap.
func BenchmarkHadoopGap(b *testing.B) { runExperiment(b, "hadoopgap") }

// BenchmarkSparkParams regenerates E5 (§2.4): ~30 of ~200 Spark parameters.
func BenchmarkSparkParams(b *testing.B) { runExperiment(b, "sparkparams") }

// BenchmarkHeterogeneity regenerates E6 (§2.5-1): transfer across hardware.
func BenchmarkHeterogeneity(b *testing.B) { runExperiment(b, "heterogeneity") }

// BenchmarkCloud regenerates E7 (§2.5-2): multi-tenant noise + provisioning.
func BenchmarkCloud(b *testing.B) { runExperiment(b, "cloud") }

// BenchmarkRealtime regenerates E8 (§2.5-3): streaming latency, static vs
// adaptive.
func BenchmarkRealtime(b *testing.B) { runExperiment(b, "realtime") }

// ---------------------------------------------------------------------------
// Ablations: design choices DESIGN.md calls out, measured.

func ablationTarget(seed int64) *dbms.DBMS {
	return dbms.New(cluster.CommodityNode(), workload.TPCHLike(2), seed)
}

// BenchmarkAblationAcquisition compares iTuned's EI-driven planning against
// pure random search at equal budget: the value of the GP.
func BenchmarkAblationAcquisition(b *testing.B) {
	for _, planned := range []bool{true, false} {
		name := "random"
		if planned {
			name = "gp-ei"
		}
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				target := ablationTarget(int64(100 + i))
				var tn tune.Tuner
				if planned {
					tn = experiment.NewITuned(int64(i))
				} else {
					tn = &experiment.Random{Seed: int64(i)}
				}
				r, err := tn.Tune(context.Background(), target, tune.Budget{Trials: 15})
				if err != nil {
					b.Fatal(err)
				}
				total += r.BestResult.Time
			}
			b.ReportMetric(total/float64(b.N), "best-runtime-s")
		})
	}
}

// BenchmarkAblationInitDesign compares LHS initialization against uniform
// random initialization inside iTuned.
func BenchmarkAblationInitDesign(b *testing.B) {
	for _, lhs := range []bool{true, false} {
		name := "uniform-init"
		if lhs {
			name = "lhs-init"
		}
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				target := ablationTarget(int64(200 + i))
				it := experiment.NewITuned(int64(i))
				if !lhs {
					it.InitLHS = 1 // degenerate design ≈ no space-filling phase
				}
				r, err := it.Tune(context.Background(), target, tune.Budget{Trials: 15})
				if err != nil {
					b.Fatal(err)
				}
				total += r.BestResult.Time
			}
			b.ReportMetric(total/float64(b.N), "best-runtime-s")
		})
	}
}

// BenchmarkAblationWorkloadMapping compares OtterTune with and without a
// repository: the value of transfer.
func BenchmarkAblationWorkloadMapping(b *testing.B) {
	repo := bench.BuildDBMSRepository(bench.Options{Seed: 1, Fast: true}, "tpch")
	for _, withRepo := range []bool{true, false} {
		name := "cold"
		if withRepo {
			name = "with-repo"
		}
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				target := ablationTarget(int64(300 + i))
				var r *tune.Repository
				if withRepo {
					r = repo
				}
				ot := ml.NewOtterTune(int64(i), r)
				res, err := ot.Tune(context.Background(), target, tune.Budget{Trials: 15})
				if err != nil {
					b.Fatal(err)
				}
				total += res.BestResult.Time
			}
			b.ReportMetric(total/float64(b.N), "best-runtime-s")
		})
	}
}

// BenchmarkAblationGPKernel compares the Matérn 5/2 kernel against the
// squared exponential on the DBMS surface (cliffs favor rougher priors).
func BenchmarkAblationGPKernel(b *testing.B) {
	for _, kernel := range []gp.KernelKind{gp.Matern52, gp.SquaredExponential} {
		name := "matern52"
		if kernel == gp.SquaredExponential {
			name = "sqexp"
		}
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				target := ablationTarget(int64(400 + i))
				it := experiment.NewITuned(int64(i))
				it.Kernel = kernel
				r, err := it.Tune(context.Background(), target, tune.Budget{Trials: 15})
				if err != nil {
					b.Fatal(err)
				}
				total += r.BestResult.Time
			}
			b.ReportMetric(total/float64(b.N), "best-runtime-s")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (runs/sec), the
// practical budget ceiling for every experiment in this repository.
func BenchmarkSimulatorThroughput(b *testing.B) {
	targets := map[string]tune.Target{
		"dbms":   ablationTarget(1),
		"hadoop": bench.HadoopTarget(workload.TeraSort(4), 2),
		"spark":  bench.SparkTarget(workload.PageRank(1, 4), 3),
	}
	for name, target := range targets {
		b.Run(name, func(b *testing.B) {
			cfg := target.Space().Default()
			for i := 0; i < b.N; i++ {
				_ = target.Run(cfg)
			}
		})
	}
}

// surrogateTrainingSet samples n (config, runtime) pairs from the DBMS
// simulator for the surrogate-scaling benchmarks.
func surrogateTrainingSet(n int, seed int64) (xs [][]float64, ys []float64) {
	target := ablationTarget(seed)
	space := target.Space()
	rnd := randFor(seed)
	xs = make([][]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		cfg := space.Random(rnd)
		xs[i] = cfg.Vector()
		ys[i] = target.Run(cfg).Time
	}
	return xs, ys
}

// BenchmarkGPFit measures Gaussian-process fitting cost versus training size
// — the per-iteration overhead of model-guided tuning. Small sizes run the
// full per-round hyperparameter search the tuners pay below the exact-GP
// wall; n ≥ 200 fits with fixed hyperparameters (the same rule the tuners
// apply past their reoptimization horizon), isolating the O(n³)
// factorization growth the sparse tier exists to avoid.
func BenchmarkGPFit(b *testing.B) {
	for _, n := range []int{20, 40, 60, 200, 500, 2000} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			xs, ys := surrogateTrainingSet(n, 5)
			optimize := n <= 60
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := gp.New(gp.Matern52)
				if err := g.Fit(xs, ys, optimize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGPRefitGrowing replays the refits of an iTuned session: one
// hyperparameter-searched Fit after each round of 4 observations, at
// n = 10, 14, …, 58. fresh fits a new GP every round, so all 105 grid
// candidates are factored from scratch each time; cached refits one GP,
// whose grid borders each candidate's factor by the 4 new rows instead.
func BenchmarkGPRefitGrowing(b *testing.B) {
	xs, ys := surrogateTrainingSet(58, 5)
	for _, mode := range []string{"fresh", "cached"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := gp.New(gp.Matern52)
				for n := 10; n <= len(xs); n += 4 {
					if mode == "fresh" {
						g = gp.New(gp.Matern52)
					}
					if err := g.Fit(xs[:n], ys[:n], true); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSurrogateFit compares the two surrogate tiers on identical
// training sets with fixed hyperparameters (optimize=false everywhere):
// pure conditioning cost, exact O(n³) vs sparse O(nm²). Whole-session cost
// is perfbench's model-session workload (bash perfbench/run.sh).
func BenchmarkSurrogateFit(b *testing.B) {
	tiers := []struct {
		name string
		make func() gp.Surrogate
	}{
		{"exact", func() gp.Surrogate { return gp.New(gp.Matern52) }},
		{"sparse", func() gp.Surrogate {
			s := gp.NewSparse(gp.Matern52)
			s.MaxInducing = 64
			return s
		}},
	}
	for _, tier := range tiers {
		for _, n := range []int{200, 500, 2000} {
			b.Run("tier="+tier.name+"/n="+strconv.Itoa(n), func(b *testing.B) {
				xs, ys := surrogateTrainingSet(n, 7)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m := tier.make()
					if err := m.Fit(xs, ys, false); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
