package tune

import (
	"fmt"

	"repro/internal/mathx/gp"
)

// Surrogate tier names accepted by SurrogateConfig.Tier.
const (
	// SurrogateAuto switches exact → sparse by training-set size (the
	// default).
	SurrogateAuto = "auto"
	// SurrogateExact always fits the exact O(n³) GP.
	SurrogateExact = "exact"
	// SurrogateSparse always fits the inducing-point (FITC) GP.
	SurrogateSparse = "sparse"
)

// SurrogateConfig selects the GP surrogate tier for the model-based tuners
// and carries the switch-over threshold on specs and wire forms, so a
// session's tier schedule — and therefore its event stream — is a pure
// function of the spec at any parallelism. The zero value means auto with
// the default threshold.
type SurrogateConfig struct {
	// Tier is one of "auto", "exact", "sparse" ("" = auto).
	Tier string `json:"tier,omitempty"`
	// SparseAbove is the training-set size beyond which auto mode leaves the
	// exact tier (default 160). Below it the exact path is byte-identical to
	// a build without any surrogate config.
	SparseAbove int `json:"sparse_above,omitempty"`
	// Inducing caps the sparse tier's inducing-point count m (default 64).
	Inducing int `json:"inducing,omitempty"`
}

// Validate rejects unknown tiers and negative thresholds. A nil config is
// valid (auto everywhere).
func (c *SurrogateConfig) Validate() error {
	if c == nil {
		return nil
	}
	switch c.Tier {
	case "", SurrogateAuto, SurrogateExact, SurrogateSparse:
	default:
		return fmt.Errorf("tune: unknown surrogate tier %q", c.Tier)
	}
	if c.SparseAbove < 0 || c.Inducing < 0 {
		return fmt.Errorf("tune: surrogate thresholds must be non-negative")
	}
	return nil
}

// withDefaults fills zero fields; nil maps to the all-default config.
func (c *SurrogateConfig) withDefaults() SurrogateConfig {
	out := SurrogateConfig{}
	if c != nil {
		out = *c
	}
	if out.Tier == "" {
		out.Tier = SurrogateAuto
	}
	if out.SparseAbove == 0 {
		out.SparseAbove = 160
	}
	if out.Inducing == 0 {
		out.Inducing = 64
	}
	return out
}

// SurrogateSelector resolves which surrogate tier a model-based tuner fits
// at a given training-set size. It is pure arithmetic over the resolved
// config — no state — so the tier schedule is deterministic for a fixed
// spec.
type SurrogateSelector struct {
	cfg SurrogateConfig
}

// NewSurrogateSelector builds a selector from cfg (nil = all defaults).
func NewSurrogateSelector(cfg *SurrogateConfig) *SurrogateSelector {
	return &SurrogateSelector{cfg: cfg.withDefaults()}
}

// Config returns the resolved (defaults-filled) configuration.
func (s *SurrogateSelector) Config() SurrogateConfig { return s.cfg }

// TierFor returns the tier a model over n observations should use: the
// forced tier when one is configured, otherwise exact while
// n ≤ SparseAbove and sparse beyond it.
func (s *SurrogateSelector) TierFor(n int) string {
	if s.cfg.Tier != SurrogateAuto {
		return s.cfg.Tier
	}
	if n <= s.cfg.SparseAbove {
		return SurrogateExact
	}
	return SurrogateSparse
}

// New constructs a fresh surrogate of the given tier. Exact-tier
// construction is exactly gp.New — the historical code path — which is what
// keeps below-threshold sessions byte-identical to builds without a
// surrogate config.
func (s *SurrogateSelector) New(kernel gp.KernelKind, tier string) gp.Surrogate {
	if tier == SurrogateSparse {
		sp := gp.NewSparse(kernel)
		sp.MaxInducing = s.cfg.Inducing
		return sp
	}
	return gp.New(kernel)
}

// Refit returns the surrogate a proposal round fits: prev itself when it is
// an exact GP of the same kernel and the round stays on the exact tier with
// a hyperparameter search, and a fresh New otherwise. A carried exact GP
// borders its hyperparameter grid's cached factors by the rows observed
// since the last round instead of refactoring them, and its optimizing Fit
// is bit-identical to a fresh gp.New's. A fresh model drops that cache once
// a session leaves the exact tier or stops optimizing — which also keeps a
// non-optimizing refit on New's default hyperparameters rather than the
// last ones selected.
func (s *SurrogateSelector) Refit(prev gp.Surrogate, kernel gp.KernelKind, tier string, optimize bool) gp.Surrogate {
	if g, ok := prev.(*gp.GP); ok && optimize && tier == SurrogateExact && g.Kernel == kernel {
		return g
	}
	return s.New(kernel, tier)
}
