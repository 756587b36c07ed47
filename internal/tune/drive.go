package tune

import (
	"context"
	"fmt"
)

// This file is the one propose → evaluate → observe loop. Every ask/tell
// session runs on it: the blocking Tuner.Tune facades through the one-slot
// sequential evaluator, the concurrent engine through its worker-pool
// evaluator, and crash-resume through an evaluator that serves the
// checkpointed results. A plain Proposer is driven as a FidelityProposer
// whose candidates all sit at full fidelity and which never prunes, so one
// loop body serves both proposal forms.

// Evaluator runs the candidates the drive loop proposes.
//
// Contract: Evaluate hands merge the result of each candidate in proposal
// order, stopping as soon as merge returns false (the session is cut, or
// the batch is fully merged and the budget spent). Results may be computed
// in any order and on any goroutine; only the merge is ordered. Evaluate
// returns once no evaluation it started can still touch its results. A
// non-nil error aborts the session (infrastructure loss, a diverged
// replay); a configuration that merely fails is a Result with Failed set.
type Evaluator interface {
	Evaluate(ctx context.Context, cands []Candidate, merge func(Result) bool) error
}

// Drive runs fp against target under b until the budget is spent, the
// proposer stops proposing, or ctx is cancelled, evaluating through ev. The
// session emits its ordered event stream through any Monitor on ctx.
// boundary, when non-nil, is called at every batch boundary: each proposed
// candidate observed and its prune notices applied, the only point at which
// a session's resumable state is well-defined.
//
// The recorded trials depend only on proposal order and the evaluator's
// results, never on evaluation timing, which is why the sequential facade
// and the parallel engine produce identical streams for a fixed seed.
func Drive(ctx context.Context, name string, target Target, b Budget, fp FidelityProposer, ev Evaluator, boundary func(*Session)) (*TuningResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var inner any = fp
	if pp, ok := fp.(plainProposer); ok {
		inner = pp.Proposer
	} else if _, ok := target.(FidelityTarget); !ok {
		return nil, fmt.Errorf("tune: target %q has no fidelity-aware evaluation path", target.Name())
	}
	s := NewSession(ctx, target, b)
	// Scenario-aware proposers (drift detectors, guardrails) get the session
	// handle before anything, replayed trials included, is recorded.
	if sa, ok := inner.(SessionAware); ok {
		sa.BindSession(s)
	}
	for !s.Exhausted() {
		s.gate()
		if s.Exhausted() {
			break // the gate may have unblocked on cancellation
		}
		remaining := s.Remaining()
		cands := fp.ProposeFidelity(remaining)
		if len(cands) == 0 {
			break
		}
		if len(cands) > remaining {
			cands = cands[:remaining]
		}
		merged := 0
		err := ev.Evaluate(ctx, cands, func(res Result) bool {
			// Checked after the evaluation, so a cut that lands while a
			// candidate is in flight drops it identically on every evaluator.
			if s.Exhausted() {
				return false
			}
			fp.ObserveFidelity(s.RecordFidelity(cands[merged], res))
			s.Prune(fp.PruneNotices()...)
			merged++
			return !s.Exhausted()
		})
		if err != nil {
			return nil, err
		}
		if merged < len(cands) {
			break
		}
		if boundary != nil {
			boundary(s)
		}
	}
	// A cancelled session is an error, not a short tuning run.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec := Config{}
	if r, ok := inner.(Recommender); ok {
		rec = r.Recommend()
	}
	return s.Finish(name, rec), nil
}

// AsFidelity drives p as a FidelityProposer: every candidate sits at full
// fidelity and no trial is ever pruned. Recording a full-fidelity candidate
// emits exactly the events RecordExternal does.
func AsFidelity(p Proposer) FidelityProposer { return plainProposer{p} }

type plainProposer struct{ Proposer }

func (p plainProposer) ProposeFidelity(n int) []Candidate {
	cfgs := p.Propose(n)
	cands := make([]Candidate, len(cfgs))
	for i, cfg := range cfgs {
		cands[i] = Candidate{Config: cfg, Fidelity: 1}
	}
	return cands
}

func (p plainProposer) ObserveFidelity(t Trial) { p.Observe(t) }

func (p plainProposer) PruneNotices() []int { return nil }

// sequential is the one-slot evaluator behind every Tuner.Tune facade. It
// evaluates lazily on the caller's goroutine, so a session cut by its
// budget never runs the candidates past the cut.
type sequential struct{ target Target }

// Evaluate implements Evaluator.
func (e sequential) Evaluate(ctx context.Context, cands []Candidate, merge func(Result) bool) error {
	for _, c := range cands {
		if !merge(RunCandidate(ctx, e.target, c)) {
			break
		}
	}
	return nil
}

// RunCandidate evaluates c on the target's own run counter: Run at full
// fidelity, RunFidelity otherwise (Drive rejects partial-fidelity proposers
// on targets without a fidelity path).
func RunCandidate(ctx context.Context, t Target, c Candidate) Result {
	if f := partialFidelity(c.Fidelity); f != 0 {
		return t.(FidelityTarget).RunFidelity(ctx, f, c.Config)
	}
	return t.Run(c.Config)
}

// DriveProposer evaluates p sequentially against target under b: the
// adapter that gives every ask/tell tuner its blocking Tune facade.
func DriveProposer(ctx context.Context, name string, target Target, b Budget, p Proposer) (*TuningResult, error) {
	return Drive(ctx, name, target, b, AsFidelity(p), sequential{target}, nil)
}
