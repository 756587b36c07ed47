package repro

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/tune"
	"repro/internal/tune/store"
)

// Spec declaratively describes one tuning session: which system/workload
// to tune, with which algorithm, under what budget and seed. Specs are
// plain JSON-serializable data — they round-trip through encoding/json —
// which is what lets remote clients submit sessions to the HTTP daemon
// and lets runs be reproduced exactly from their recorded spec. Any names
// added through RegisterTarget/RegisterTuner are accepted.
type Spec struct {
	// System and Workload name the target (see Systems and Workloads).
	System   string `json:"system"`
	Workload string `json:"workload"`
	// Tuner names the tuning approach (see Tuners).
	Tuner string `json:"tuner"`
	// Seed drives both the target's noise stream and the tuner's
	// randomness. A spec with the same seed always produces the same
	// trials, result, and event sequence, at any parallelism.
	Seed int64 `json:"seed"`
	// Budget caps the session's real runs and simulated time.
	Budget Budget `json:"budget"`
	// Target tweaks target construction (scale, fleet, tenancy).
	Target TargetOptions `json:"target,omitzero"`
	// Proxy configures the scaled replica for the "scaled-proxy" tuner:
	// the same system and workload rebuilt at the given scale.
	Proxy *ProxySpec `json:"proxy,omitempty"`
	// Parallel is the worker count for batch trial evaluation within the
	// session (0/1 = sequential; results identical at any value).
	Parallel int `json:"parallel,omitempty"`
	// Memo enables the config-keyed result memo cache for this session.
	Memo bool `json:"memo,omitempty"`
	// MemoCap bounds the memo cache to this many retained results with
	// cost-aware GDSF eviction; >0 implies Memo, 0 keeps the unbounded
	// map. Bounded sessions still evaluate deterministically at any
	// parallelism — only which repeats are served memoized can differ
	// from the unbounded cache.
	MemoCap int `json:"memo_cap,omitempty"`
	// Repository names a directory holding the durable tuning repository
	// (internal/tune/store layout). Start and StartOn load past sessions
	// from it — feeding repository-driven tuners and WarmStart — and
	// archive the finished session back into it. The HTTP daemon rejects
	// specs carrying this field: the daemon owns its own repository
	// directory and clients opt into it with WarmStart alone.
	Repository string `json:"repository,omitempty"`
	// WarmStart seeds the session's proposer with the best configurations
	// transferred from the mapped nearest past workload of the same system
	// in the repository (see tune.WarmConfigs). It requires an ask/tell
	// tuner; over an empty repository it degrades to a cold start.
	WarmStart bool `json:"warm_start,omitempty"`
	// Fidelity, when set, runs the session as a multi-fidelity schedule:
	// successive-halving/Hyperband brackets over the tuner's proposals,
	// screening configurations cheaply at low fidelity and promoting only
	// the survivors to full-cost runs (TrialPruned events mark the
	// early-stopped trials). It requires an ask/tell tuner and a target
	// with a fidelity-aware evaluation path.
	Fidelity *FidelitySpec `json:"fidelity,omitempty"`
	// Pareto opts the session into multi-objective latency-vs-cost tuning:
	// the tuner is fanned across scalarization weights (one differently
	// seeded sub-search per weight, see tune.MultiObjectiveTuner) and the
	// session tracks the Pareto front over full-fidelity trials, emitting a
	// ParetoIncumbent event whenever a trial joins it. Requires an ask/tell
	// tuner; incompatible with Fidelity.
	Pareto bool `json:"pareto,omitempty"`
	// Guardrail, when > 0, is the session's objective guardrail: the tuner
	// is wrapped in a surrogate safety screen (tune.GuardrailTuner) that
	// vetoes configurations predicted to exceed it, and every trial that
	// exceeds it anyway is counted and emitted as a GuardrailViolation
	// event. Requires an ask/tell tuner; incompatible with Fidelity.
	Guardrail float64 `json:"guardrail,omitempty"`
	// DriftDetect arms workload-drift detection (tune.DriftDetectTuner):
	// when the observed objective stream regresses persistently against the
	// incumbent, the session re-anchors — discards the stale incumbent,
	// emits DriftDetected, and restarts the proposer stack (including any
	// warm-start seeding) fresh against the shifted workload. Requires an
	// ask/tell tuner; incompatible with Fidelity. Pair with a drifting
	// workload (e.g. dbms "oltp-olap-shift" or "diurnal").
	DriftDetect bool `json:"drift_detect,omitempty"`
	// Surrogate selects the GP surrogate tier for the model-based tuners
	// (ituned, ottertune) and the trial-count threshold at which a session
	// switches exact → sparse. nil means auto with the default
	// threshold; below it the exact tier runs the
	// historical code path, so sessions recorded without this field replay
	// byte-identically. Carried on the wire form so a recorded spec pins
	// its tier schedule.
	Surrogate *SurrogateSpec `json:"surrogate,omitempty"`
}

// FidelitySpec configures multi-fidelity tuning for a session (see
// tune.FidelitySpace and tune.Schedule).
type FidelitySpec struct {
	// Strategy selects the bracket schedule: "hyperband" (default) cycles
	// full Hyperband sweeps; "halving" repeats the single most exploratory
	// successive-halving bracket.
	Strategy string `json:"strategy,omitempty"`
	// Min is the lowest fidelity evaluated, as a fraction of the full
	// workload (default 1/9).
	Min float64 `json:"min,omitempty"`
	// Eta is the rung promotion ratio (default 3).
	Eta float64 `json:"eta,omitempty"`
}

// validate rejects out-of-range fidelity options with descriptive errors.
func (f *FidelitySpec) validate() error {
	switch f.Strategy {
	case "", tune.StrategyHyperband, tune.StrategyHalving:
	default:
		return fmt.Errorf("repro: unknown fidelity strategy %q (have %s, %s)",
			f.Strategy, tune.StrategyHyperband, tune.StrategyHalving)
	}
	if f.Min != 0 && !(f.Min >= tune.MinFidelity && f.Min <= 1) {
		return fmt.Errorf("repro: fidelity min must be within [%v, 1] (0 selects the default of 1/9), got %v", tune.MinFidelity, f.Min)
	}
	if f.Eta != 0 && !(f.Eta >= 1.5 && f.Eta <= 10) {
		return fmt.Errorf("repro: fidelity eta must be within [1.5, 10] (0 selects the default of 3), got %v", f.Eta)
	}
	return nil
}

// WarmSeeds is how many transferred configurations a warm-started session
// proposes before its tuner takes over.
const WarmSeeds = 3

// ProxySpec describes the scaled-down replica used by the scaled-proxy
// tuner: the spec's system and workload rebuilt at ScaleGB (and optionally
// Nodes), seeded independently of the full-scale target.
type ProxySpec struct {
	ScaleGB float64 `json:"scale_gb"`
	Nodes   int     `json:"nodes,omitempty"`
}

// Name returns the session's display name, "system/workload/tuner".
func (s Spec) Name() string {
	return s.System + "/" + s.Workload + "/" + s.Tuner
}

// Validate checks the spec against the registries and option ranges,
// returning a descriptive error for the first problem found.
func (s Spec) Validate() error {
	if s.System == "" || s.Workload == "" || s.Tuner == "" {
		return fmt.Errorf("repro: spec requires system, workload, and tuner (got %q, %q, %q)", s.System, s.Workload, s.Tuner)
	}
	wls := Workloads(s.System)
	if wls == nil {
		return fmt.Errorf("repro: unknown system %q (have %s)", s.System, strings.Join(Systems(), ", "))
	}
	// An empty declared list means the factory accepts open-ended workload
	// names; membership is then the factory's call at build time.
	if len(wls) > 0 {
		known := false
		for _, wl := range wls {
			if wl == s.Workload {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("repro: unknown %s workload %q (have %s)", s.System, s.Workload, strings.Join(wls, ", "))
		}
	}
	if _, _, ok := TunerInfo(s.Tuner); !ok {
		return fmt.Errorf("repro: unknown tuner %q (have %s)", s.Tuner, strings.Join(Tuners(), ", "))
	}
	// A session without a positive trial cap would complete instantly
	// with zero trials and the default config — a silent no-op a remote
	// client would mistake for success. Trials caps the run count even
	// under a sim-time budget (sim_time only tightens it).
	if s.Budget.Trials <= 0 {
		return fmt.Errorf("repro: spec requires budget.trials > 0, got %d", s.Budget.Trials)
	}
	if !(s.Budget.SimTime >= 0) {
		return fmt.Errorf("repro: budget sim_time must be ≥ 0, got %v", s.Budget.SimTime)
	}
	if s.Parallel < 0 {
		return fmt.Errorf("repro: parallel must be ≥ 0, got %d", s.Parallel)
	}
	if s.MemoCap < 0 {
		return fmt.Errorf("repro: memo_cap must be ≥ 0 (0 = unbounded), got %d", s.MemoCap)
	}
	if err := s.Target.validate(); err != nil {
		return err
	}
	if s.Proxy != nil {
		if !(s.Proxy.ScaleGB > 0) {
			return fmt.Errorf("repro: proxy scale_gb must be > 0, got %v", s.Proxy.ScaleGB)
		}
		if s.Proxy.Nodes < 0 {
			return fmt.Errorf("repro: proxy nodes must be ≥ 0, got %d", s.Proxy.Nodes)
		}
	}
	if s.Fidelity != nil {
		if err := s.Fidelity.validate(); err != nil {
			return err
		}
	}
	if s.Guardrail < 0 {
		return fmt.Errorf("repro: guardrail must be ≥ 0 (0 = off), got %v", s.Guardrail)
	}
	// The scenario wrappers reshape the proposal stream per observation;
	// a fidelity schedule reshapes it per rung. Composing them would make
	// rung promotion decisions depend on scalarized or screened objectives
	// — silently different semantics — so the combination is rejected.
	if s.Fidelity != nil && (s.Pareto || s.Guardrail > 0 || s.DriftDetect) {
		return fmt.Errorf("repro: pareto, guardrail, and drift_detect are incompatible with a fidelity schedule")
	}
	if err := s.Surrogate.Validate(); err != nil {
		return err
	}
	return nil
}

// Job materializes the spec: it validates, builds the target and tuner,
// and returns the engine job describing the session. The Repository field
// is not resolved here — store lifecycle belongs to Start/StartOn (or to a
// caller passing a loaded corpus through JobWith).
func (s Spec) Job() (Job, error) { return s.JobWith(nil, nil) }

// JobWith materializes the spec against an explicit repository corpus: repo
// (which may be nil) supplies past sessions to repository-driven tuners and
// to WarmStart's transfer mapping, and archive (which may be nil) receives
// the finished session's record after a successful run. Callers own the
// corpus and the durability of archive — the daemon passes its store's
// snapshot and append; Start wires a store from Spec.Repository.
func (s Spec) JobWith(repo *Repository, archive func(SessionRecord)) (Job, error) {
	var warm tune.WarmSource
	if repo != nil {
		warm = repo
	}
	return s.JobWithWarm(repo, warm, archive)
}

// JobWithWarm is JobWith with the warm-start seed source decoupled from the
// materialized corpus: warm (which may be nil) answers WarmStart's
// nearest-workload transfer query, so a caller holding an indexed store can
// warm-start against a million-session repository without materializing it.
// repo still feeds repository-driven tuners; TunerNeedsRepository reports
// whether s.Tuner actually wants one.
func (s Spec) JobWithWarm(repo *Repository, warm tune.WarmSource, archive func(SessionRecord)) (Job, error) {
	if err := s.Validate(); err != nil {
		return Job{}, err
	}
	target, err := NewTarget(s.System, s.Workload, s.Seed, s.Target)
	if err != nil {
		return Job{}, err
	}
	topt := TunerOptions{Seed: s.Seed, Repo: repo, TargetName: target.Name(), Surrogate: s.Surrogate}
	if s.Proxy != nil {
		po := s.Target
		po.ScaleGB = s.Proxy.ScaleGB
		if s.Proxy.Nodes > 0 {
			po.Nodes = s.Proxy.Nodes
		}
		// The replica gets its own derived seed so its simulations draw a
		// noise stream independent of the full-scale target's.
		proxy, err := NewTarget(s.System, s.Workload, s.Seed+1, po)
		if err != nil {
			return Job{}, fmt.Errorf("repro: building proxy target: %w", err)
		}
		topt.Proxy = proxy
	}
	tuner, err := NewTuner(s.Tuner, topt)
	if err != nil {
		return Job{}, err
	}
	// Scenario wrapper order, inside out: base tuner → pareto fan-out →
	// guardrail screen → warm-start seeding → drift detection. The guardrail
	// screens everything the sweep proposes; warm seeds flow through the
	// screen as evidence; the drift detector sits outermost so a re-anchor
	// rebuilds the whole stack (screen, seeds, and all) fresh.
	if s.Pareto {
		bt, ok := tuner.(tune.BatchTuner)
		if !ok {
			return Job{}, fmt.Errorf("repro: tuner %q has no ask/tell form and cannot run multi-objective", s.Tuner)
		}
		subs := []tune.BatchTuner{bt}
		for i := 1; i < len(tune.DefaultParetoWeights); i++ {
			// Each scalarization weight gets its own differently seeded
			// sub-search so the design phases explore distinct points.
			sopt := topt
			sopt.Seed = s.Seed + int64(i)
			sub, err := NewTuner(s.Tuner, sopt)
			if err != nil {
				return Job{}, err
			}
			sbt, ok := sub.(tune.BatchTuner)
			if !ok {
				return Job{}, fmt.Errorf("repro: tuner %q has no ask/tell form and cannot run multi-objective", s.Tuner)
			}
			subs = append(subs, sbt)
		}
		mo, err := tune.MultiObjectiveTuner(subs, tune.DefaultParetoWeights)
		if err != nil {
			return Job{}, err
		}
		tuner = mo
	}
	if s.Guardrail > 0 {
		bt, ok := tuner.(tune.BatchTuner)
		if !ok {
			return Job{}, fmt.Errorf("repro: tuner %q has no ask/tell form and cannot run a guardrail screen", s.Tuner)
		}
		gt, err := tune.GuardrailTuner(bt, tune.GuardrailOptions{Limit: s.Guardrail})
		if err != nil {
			return Job{}, err
		}
		tuner = gt
	}
	if s.WarmStart {
		bt, ok := tuner.(tune.BatchTuner)
		if !ok {
			return Job{}, fmt.Errorf("repro: tuner %q has no ask/tell form and cannot warm-start", s.Tuner)
		}
		var features map[string]float64
		if d, ok := target.(tune.Describer); ok {
			features = d.WorkloadFeatures()
		}
		var seeds []tune.Config
		if warm != nil {
			seeds = warm.WarmConfigs(s.System, features, target.Space(), WarmSeeds)
		}
		tuner = tune.WarmStartTuner(bt, seeds)
	}
	if s.Fidelity != nil {
		bt, ok := tuner.(tune.BatchTuner)
		if !ok {
			return Job{}, fmt.Errorf("repro: tuner %q has no ask/tell form and cannot run a fidelity schedule", s.Tuner)
		}
		if _, ok := target.(tune.FidelityTarget); !ok {
			return Job{}, fmt.Errorf("repro: target %q has no fidelity-aware evaluation path", target.Name())
		}
		mf, err := tune.NewMultiFidelity(bt,
			tune.FidelitySpace{Min: s.Fidelity.Min, Eta: s.Fidelity.Eta}, s.Fidelity.Strategy, s.Seed)
		if err != nil {
			return Job{}, err
		}
		tuner = mf
	}
	if s.DriftDetect {
		bt, ok := tuner.(tune.BatchTuner)
		if !ok {
			return Job{}, fmt.Errorf("repro: tuner %q has no ask/tell form and cannot run drift detection", s.Tuner)
		}
		tuner = tune.DriftDetectTuner(bt, tune.DriftOptions{})
	}
	return Job{
		Name:      s.Name(),
		Tuner:     tuner,
		Target:    target,
		Budget:    s.Budget,
		Parallel:  s.Parallel,
		Memo:      s.Memo,
		MemoCap:   s.MemoCap,
		System:    s.System,
		Workload:  s.Workload,
		Archive:   archive,
		Pareto:    s.Pareto,
		Guardrail: s.Guardrail,
	}, nil
}

// defaultEngine serves package-level Start calls: one shared scheduler
// sized to the machine.
var defaultEngine = sync.OnceValue(func() *Engine {
	return engine.New(engine.Options{})
})

// Start materializes spec and submits it to the shared default engine,
// returning the live session handle. The handle's Events stream delivers
// TrialStarted/TrialDone/IncumbentImproved/SessionDone in trial order, and
// Pause/Resume/Stop control the run mid-flight. For a fixed spec and seed
// the final result equals what the blocking path (NewTarget + NewTuner +
// Tune) returns, and the event sequence is byte-identical at any Parallel.
// Cancelling ctx stops the run.
func Start(ctx context.Context, spec Spec) (*Run, error) {
	return StartOn(ctx, defaultEngine(), spec)
}

// StartOn is Start on a caller-owned engine — the daemon uses it to bound
// concurrent sessions with its own scheduler.
//
// When spec.Repository names a directory, the durable store there is loaded
// at submission (its sessions feed repository-driven tuners and
// warm-starting) and reopened briefly to archive a successful run's record
// before the run reports done — the store is never held across the run, so
// sequential sessions on one directory cannot collide on its process lock.
// On this convenience path an append failure surfaces on stderr only;
// callers that must observe archival errors should open the store
// themselves and use JobWith.
func StartOn(ctx context.Context, e *Engine, spec Spec) (*Run, error) {
	if spec.Repository == "" {
		job, err := spec.Job()
		if err != nil {
			return nil, err
		}
		return e.SubmitContext(ctx, job), nil
	}
	st, err := store.Open(spec.Repository)
	if err != nil {
		return nil, err
	}
	// Only repository-driven tuners need the corpus materialized; everyone
	// else (including warm start, which runs on the store's feature index)
	// gets by on the open store alone, keeping submission cheap at scale.
	var repo *Repository
	if TunerNeedsRepository(spec.Tuner) {
		if repo, err = st.Repository(); err != nil {
			st.Close()
			return nil, err
		}
	}
	job, err := spec.JobWithWarm(repo, st, func(rec SessionRecord) {
		st, err := store.Open(spec.Repository)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: archiving session: %v\n", err)
			return
		}
		defer st.Close()
		if _, err := st.Append(rec); err != nil {
			fmt.Fprintf(os.Stderr, "repro: archiving session: %v\n", err)
		}
	})
	// Warm-start seeds are drawn eagerly inside JobWithWarm, so the store is
	// no longer needed once the job exists.
	cerr := st.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	return e.SubmitContext(ctx, job), nil
}
