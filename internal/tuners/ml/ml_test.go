package ml

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/tune"
	"repro/internal/workload"
)

func testTarget(seed int64) *dbms.DBMS {
	return dbms.New(cluster.CommodityNode(), workload.TPCHLike(2), seed)
}

// syntheticSessions builds a repository corpus whose metrics fall into two
// correlated families (io-driven and cpu-driven) plus one constant metric,
// the structure OtterTune's PCA + k-means pruning is meant to collapse.
func syntheticSessions(trials int) []tune.SessionRecord {
	rng := rand.New(rand.NewSource(1))
	var s tune.SessionRecord
	s.System, s.Workload = "dbms", "synthetic"
	for i := 0; i < trials; i++ {
		io := rng.Float64() * 100
		cpu := rng.Float64() * 10
		s.Trials = append(s.Trials, tune.TrialRecord{
			Vector: []float64{rng.Float64()},
			Time:   io + cpu,
			Metrics: map[string]float64{
				"io_time_s":    io,
				"seq_read_mb":  io * 50,
				"rand_read_mb": io * 5,
				"cpu_time_s":   cpu,
				"cycles_k":     cpu * 1000,
				"constant":     42,
			},
		})
	}
	return []tune.SessionRecord{s}
}

func TestMetricNamesSortedUnion(t *testing.T) {
	names := metricNames(syntheticSessions(6))
	want := []string{"constant", "cpu_time_s", "cycles_k", "io_time_s", "rand_read_mb", "seq_read_mb"}
	if len(names) != len(want) {
		t.Fatalf("got %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("got %v, want %v", names, want)
		}
	}
}

func TestPruneMetricsKeepsRepresentatives(t *testing.T) {
	sessions := syntheticSessions(40)
	all := metricNames(sessions)
	pruned := pruneMetrics(sessions, 3, rand.New(rand.NewSource(7)))
	if len(pruned) == 0 || len(pruned) > 3 {
		t.Fatalf("pruned to %d metrics, want 1..3: %v", len(pruned), pruned)
	}
	valid := map[string]bool{}
	for _, n := range all {
		valid[n] = true
	}
	seen := map[string]bool{}
	for _, n := range pruned {
		if !valid[n] {
			t.Fatalf("pruning invented metric %q", n)
		}
		if seen[n] {
			t.Fatalf("pruning repeated metric %q", n)
		}
		seen[n] = true
	}
	// Deterministic given the rng seed.
	again := pruneMetrics(sessions, 3, rand.New(rand.NewSource(7)))
	if len(again) != len(pruned) {
		t.Fatalf("pruning not deterministic: %v vs %v", pruned, again)
	}
	for i := range pruned {
		if pruned[i] != again[i] {
			t.Fatalf("pruning not deterministic: %v vs %v", pruned, again)
		}
	}
}

func TestPruneMetricsSmallCorpusPassthrough(t *testing.T) {
	sessions := syntheticSessions(2) // < 4 observation rows
	got := pruneMetrics(sessions, 3, rand.New(rand.NewSource(1)))
	if len(got) != 3 {
		t.Fatalf("small corpus should truncate to keep: got %v", got)
	}
}

func TestRankKnobsFallsBackToImpact(t *testing.T) {
	space := testTarget(1).Space()
	ranking := rankKnobs(space, nil) // no sessions → documentation impact
	impact := space.ByImpact()
	if len(ranking) != len(impact) {
		t.Fatalf("ranking covers %d of %d knobs", len(ranking), len(impact))
	}
	for i := range impact {
		if ranking[i] != impact[i] {
			t.Fatalf("cold ranking differs from ByImpact at %d: %v", i, ranking)
		}
	}
}

func TestOtterTuneProposerPhases(t *testing.T) {
	ot := NewOtterTune(3, nil)
	target := testTarget(3)
	p, err := ot.NewProposer(target, tune.Budget{Trials: 20})
	if err != nil {
		t.Fatal(err)
	}
	init := p.Propose(20)
	if len(init) != 6 { // default config + InitObs LHS points
		t.Fatalf("init batch has %d configs, want 6", len(init))
	}
	if init[0].String() != target.Space().Default().String() {
		t.Fatal("first observation should be the default configuration")
	}
	for i, cfg := range init {
		p.Observe(tune.Trial{N: i + 1, Config: cfg, Result: tune.Result{Time: float64(200 - i)}})
	}
	round := p.Propose(20)
	if len(round) == 0 || len(round) > 4 {
		t.Fatalf("GP round proposed %d candidates, want 1..4", len(round))
	}
}

func TestOtterTuneColdStartImproves(t *testing.T) {
	target := testTarget(5)
	def := target.Run(target.Space().Default())
	r, err := NewOtterTune(5, nil).Tune(context.Background(), testTarget(6), tune.Budget{Trials: 15})
	if err != nil {
		t.Fatal(err)
	}
	if r.BestResult.Time >= def.Time {
		t.Errorf("cold-start OtterTune did not improve: %v vs default %v", r.BestResult.Time, def.Time)
	}
	if len(r.Trials) > 15 {
		t.Errorf("budget exceeded: %d trials", len(r.Trials))
	}
}
