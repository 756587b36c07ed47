package tune

import (
	"testing"

	"repro/internal/mathx/gp"
)

func TestSurrogateConfigValidate(t *testing.T) {
	good := []*SurrogateConfig{
		nil,
		{},
		{Tier: SurrogateAuto},
		{Tier: SurrogateExact},
		{Tier: SurrogateSparse, Inducing: 32},
		{SparseAbove: 100},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []*SurrogateConfig{
		{Tier: "kriging"},
		{Tier: "rff"},
		{SparseAbove: -1},
		{Inducing: -5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestSurrogateSelectorTierFor(t *testing.T) {
	auto := NewSurrogateSelector(nil)
	cases := []struct {
		n    int
		want string
	}{
		{10, SurrogateExact},
		{160, SurrogateExact}, // at the threshold: still exact
		{161, SurrogateSparse},
		{1500, SurrogateSparse},
		{100000, SurrogateSparse}, // no tier above sparse
	}
	for _, c := range cases {
		if got := auto.TierFor(c.n); got != c.want {
			t.Errorf("auto TierFor(%d) = %q, want %q", c.n, got, c.want)
		}
	}
	// Forced tiers ignore size.
	forced := NewSurrogateSelector(&SurrogateConfig{Tier: SurrogateSparse})
	if got := forced.TierFor(3); got != SurrogateSparse {
		t.Errorf("forced TierFor = %q, want sparse", got)
	}
	forced = NewSurrogateSelector(&SurrogateConfig{Tier: SurrogateExact})
	if got := forced.TierFor(5000); got != SurrogateExact {
		t.Errorf("forced TierFor = %q, want exact", got)
	}
	// Custom threshold.
	custom := NewSurrogateSelector(&SurrogateConfig{SparseAbove: 8})
	if got := custom.TierFor(8); got != SurrogateExact {
		t.Errorf("custom TierFor(8) = %q, want exact", got)
	}
	if got := custom.TierFor(9); got != SurrogateSparse {
		t.Errorf("custom TierFor(9) = %q, want sparse", got)
	}
}

func TestSurrogateSelectorDefaults(t *testing.T) {
	cfg := NewSurrogateSelector(nil).Config()
	if cfg.Tier != SurrogateAuto || cfg.SparseAbove != 160 || cfg.Inducing != 64 {
		t.Fatalf("defaults = %+v", cfg)
	}
	// Partial configs keep explicit fields and fill the rest.
	cfg = NewSurrogateSelector(&SurrogateConfig{SparseAbove: 40}).Config()
	if cfg.SparseAbove != 40 || cfg.Inducing != 64 {
		t.Fatalf("partial defaults = %+v", cfg)
	}
}

func TestSurrogateSelectorNew(t *testing.T) {
	sel := NewSurrogateSelector(&SurrogateConfig{Inducing: 16})
	if got := sel.New(gp.Matern52, SurrogateExact).Tier(); got != "exact" {
		t.Errorf("New(exact).Tier() = %q", got)
	}
	sp := sel.New(gp.Matern52, SurrogateSparse)
	if got := sp.Tier(); got != "sparse" {
		t.Errorf("New(sparse).Tier() = %q", got)
	}
	if m := sp.(*gp.SparseGP).MaxInducing; m != 16 {
		t.Errorf("sparse MaxInducing = %d, want 16", m)
	}
}
