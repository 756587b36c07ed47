package experiment

import (
	"context"
	"testing"

	"repro/internal/sysmodel/cluster"
	"repro/internal/sysmodel/dbms"
	"repro/internal/tune"
	"repro/internal/workload"
)

func testTarget(seed int64) *dbms.DBMS {
	return dbms.New(cluster.CommodityNode(), workload.TPCHLike(2), seed)
}

func inUnitCube(t *testing.T, cfg tune.Config) {
	t.Helper()
	for _, v := range cfg.Vector() {
		if v < 0 || v > 1 {
			t.Fatalf("coordinate %v outside the unit cube", v)
		}
	}
}

func TestRandomProposerStreamsAndIsDeterministic(t *testing.T) {
	target := testTarget(1)
	b := tune.Budget{Trials: 10}
	mk := func() tune.Proposer {
		p, err := (&Random{Seed: 5}).NewProposer(target, b)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, c := mk(), mk()
	got := a.Propose(6)
	if len(got) != 6 {
		t.Fatalf("Propose(6) returned %d configs", len(got))
	}
	other := c.Propose(6)
	for i := range got {
		inUnitCube(t, got[i])
		if got[i].String() != other[i].String() {
			t.Fatalf("same seed proposed different configs at %d", i)
		}
	}
	// Observation must not perturb the stream.
	a.Observe(tune.Trial{N: 1, Config: got[0], Result: tune.Result{Time: 1}})
	if a.Propose(1)[0].String() != c.Propose(1)[0].String() {
		t.Fatal("Observe changed the proposal stream")
	}
}

func TestGridProposerCoversFactorialDesign(t *testing.T) {
	target := testTarget(2)
	space := target.Space()
	b := tune.Budget{Trials: 30} // 3 levels over 3 knobs (floor(30^(1/3)) = 3)
	p, err := (&Grid{TopK: 3}).NewProposer(target, b)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := p.Propose(100)
	if len(cfgs) != 27 {
		t.Fatalf("grid proposed %d points, want 27", len(cfgs))
	}
	// Non-swept parameters stay at their defaults.
	swept := map[string]bool{}
	for _, name := range space.ByImpact()[:3] {
		swept[name] = true
	}
	def := space.Default()
	seen := map[string]bool{}
	for _, cfg := range cfgs {
		seen[cfg.String()] = true
		for _, prm := range space.Params() {
			if !swept[prm.Name] && cfg.Native(prm.Name) != def.Native(prm.Name) {
				t.Fatalf("parameter %s moved off its default in a grid point", prm.Name)
			}
		}
	}
	if len(seen) != 27 {
		t.Fatalf("grid proposed %d distinct points, want 27", len(seen))
	}
	if more := p.Propose(10); len(more) != 0 {
		t.Fatalf("exhausted grid proposed %d more points", len(more))
	}
}

func TestITunedProposerPhases(t *testing.T) {
	target := testTarget(3)
	b := tune.Budget{Trials: 30}
	it := NewITuned(9)
	p, err := it.NewProposer(target, b)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: the Latin-hypercube design arrives as one batch.
	init := p.Propose(30)
	if len(init) != 10 { // min(10, 30/3)
		t.Fatalf("LHS init proposed %d points, want 10", len(init))
	}
	for i, cfg := range init {
		inUnitCube(t, cfg)
		p.Observe(tune.Trial{N: i + 1, Config: cfg, Result: tune.Result{Time: float64(100 + i)}})
	}
	// Phase 2: GP rounds propose at most Batch candidates, all distinct.
	round := p.Propose(20)
	if len(round) == 0 || len(round) > 4 {
		t.Fatalf("GP round proposed %d candidates, want 1..4", len(round))
	}
	seen := map[string]bool{}
	for _, cfg := range round {
		inUnitCube(t, cfg)
		seen[cfg.String()] = true
	}
	if len(seen) != len(round) {
		t.Fatalf("GP round proposed duplicate candidates: %v", round)
	}
	// A budget headroom of 1 caps the batch.
	for i, cfg := range round {
		p.Observe(tune.Trial{N: 11 + i, Config: cfg, Result: tune.Result{Time: 90}})
	}
	if got := p.Propose(1); len(got) != 1 {
		t.Fatalf("Propose(1) returned %d candidates", len(got))
	}
}

func TestITunedProposerDeterminism(t *testing.T) {
	b := tune.Budget{Trials: 16}
	run := func() []string {
		r, err := NewITuned(4).Tune(context.Background(), testTarget(4), b)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, tr := range r.Trials {
			out = append(out, tr.Config.String())
		}
		return out
	}
	a, c := run(), run()
	if len(a) != len(c) {
		t.Fatalf("trial counts differ: %d vs %d", len(a), len(c))
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("trial %d differs between identical runs", i+1)
		}
	}
}
