package tune

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// MultiFidelityTuner runs successive-halving/Hyperband brackets over any
// BatchTuner: the inner tuner's proposer supplies each bracket's base-rung
// configurations, the bracket schedule decides which of them earn
// re-evaluation at higher fidelity, and non-promoted members are
// early-stopped (TrialPruned in the event stream). Every observation flows
// back into the inner proposer — partial-fidelity times cost-normalized by
// 1/f so a model-based inner tuner (iTuned's GP, OtterTune) conditions on
// one comparable scale (see mfProposer.normalize).
type MultiFidelityTuner struct {
	inner    BatchTuner
	fs       FidelitySpace
	strategy string
	seed     int64
}

// NewMultiFidelity wraps inner in the given fidelity schedule. Strategy is
// StrategyHyperband (also the default for ""), or StrategyHalving. The seed
// threads into rung promotion tie-breaks.
func NewMultiFidelity(inner BatchTuner, fs FidelitySpace, strategy string, seed int64) (*MultiFidelityTuner, error) {
	switch strategy {
	case "":
		strategy = StrategyHyperband
	case StrategyHyperband, StrategyHalving:
	default:
		return nil, fmt.Errorf("tune: unknown fidelity strategy %q (have %s, %s)", strategy, StrategyHyperband, StrategyHalving)
	}
	if inner == nil {
		return nil, fmt.Errorf("tune: multi-fidelity requires an inner ask/tell tuner")
	}
	return &MultiFidelityTuner{inner: inner, fs: fs.withDefaults(), strategy: strategy, seed: seed}, nil
}

// Name implements Tuner, e.g. "hyperband(ituned)".
func (t *MultiFidelityTuner) Name() string { return t.strategy + "(" + t.inner.Name() + ")" }

// Tune implements Tuner on the drive loop with the sequential evaluator;
// the concurrent engine drives the same proposer through its worker pool,
// with the same observation and prune order.
func (t *MultiFidelityTuner) Tune(ctx context.Context, target Target, b Budget) (*TuningResult, error) {
	fp, err := t.NewFidelityProposer(target, b)
	if err != nil {
		return nil, err
	}
	return Drive(ctx, t.Name(), target, b, fp, sequential{target}, nil)
}

// NewFidelityProposer implements FidelityBatchTuner.
func (t *MultiFidelityTuner) NewFidelityProposer(target Target, b Budget) (FidelityProposer, error) {
	if _, ok := target.(FidelityTarget); !ok {
		return nil, fmt.Errorf("tune: target %q has no fidelity-aware evaluation path", target.Name())
	}
	p, err := t.inner.NewProposer(target, b)
	if err != nil {
		return nil, err
	}
	return &mfProposer{
		inner:    p,
		fs:       t.fs,
		seed:     t.seed,
		schedule: Schedule(t.fs, t.strategy, b.Trials),
	}, nil
}

// mfMember is one configuration's standing in the current rung.
type mfMember struct {
	cfg Config
	n   int // trial number, known once observed
	obj float64
}

// mfProposer walks the bracket schedule: base rungs draw fresh
// configurations from the inner proposer, higher rungs re-evaluate promoted
// survivors, and every decision is a stable sort with seed-threaded
// tie-breaks — no state depends on evaluation scheduling, which is what
// keeps event streams byte-identical at any parallelism.
type mfProposer struct {
	inner    Proposer
	fs       FidelitySpace
	seed     int64
	schedule []Bracket

	bi     int       // current bracket index into schedule
	ri     int       // current rung within the bracket
	widths []int     // current bracket's rung widths (rescaled if the inner under-delivered)
	fids   []float64 // current bracket's rung fidelities
	rung   []mfMember
	obsd   int // rung members observed so far

	pending []Candidate // rung candidates not yet handed to the driver
	prunes  []int
	done    bool
}

// ProposeFidelity implements FidelityProposer.
func (p *mfProposer) ProposeFidelity(n int) []Candidate {
	if n <= 0 || p.done {
		return nil
	}
	if len(p.pending) == 0 {
		if p.rung != nil {
			// The current rung is fully handed out but not fully observed:
			// nothing to propose until the driver reports back.
			return nil
		}
		p.startBracket()
		if p.done || len(p.pending) == 0 {
			return nil
		}
	}
	if n > len(p.pending) {
		n = len(p.pending)
	}
	out := p.pending[:n:n]
	p.pending = p.pending[n:]
	return out
}

// startBracket opens the next scheduled bracket, drawing its base rung from
// the inner proposer. An inner proposer whose design is exhausted ends the
// whole schedule.
func (p *mfProposer) startBracket() {
	if p.bi >= len(p.schedule) {
		p.done = true
		return
	}
	br := p.schedule[p.bi]
	want := br.Rungs[0].Width
	// Top up until the base rung is full: proposers that hand out small
	// batches (a GP round proposes a handful at a time) are asked again,
	// and only an empty reply — the proposer's design is exhausted — ends
	// the schedule.
	var cfgs []Config
	for len(cfgs) < want {
		got := p.inner.Propose(want - len(cfgs))
		if len(got) == 0 {
			break
		}
		cfgs = append(cfgs, got...)
	}
	if len(cfgs) == 0 {
		p.done = true
		return
	}
	p.widths = make([]int, len(br.Rungs))
	p.fids = make([]float64, len(br.Rungs))
	for i, r := range br.Rungs {
		p.widths[i] = r.Width
		p.fids[i] = r.Fidelity
	}
	if len(cfgs) < want {
		// The inner proposer under-delivered (a grid ran out, a design
		// converged): shrink the bracket by successive halving from the
		// actual base width. Widths clamp to one, mirroring bracketFrom:
		// however few configurations arrived, the best survivor still
		// climbs to full fidelity so the session can hold an incumbent.
		// Shrunk widths never exceed the scheduled ones, so the budget
		// bound is preserved.
		for i := range p.widths {
			if w := int(float64(len(cfgs)) / math.Pow(p.fs.Eta, float64(i))); w < p.widths[i] {
				p.widths[i] = w
			}
			if p.widths[i] < 1 {
				p.widths[i] = 1
			}
		}
		p.widths[0] = len(cfgs)
	}
	p.ri = 0
	p.setRung(cfgs, p.fids[0])
}

// setRung installs cfgs as the current rung at the given fidelity.
func (p *mfProposer) setRung(cfgs []Config, fid float64) {
	p.rung = make([]mfMember, len(cfgs))
	p.pending = make([]Candidate, len(cfgs))
	for i, cfg := range cfgs {
		p.rung[i] = mfMember{cfg: cfg}
		p.pending[i] = Candidate{Config: cfg, Fidelity: fid}
	}
	p.obsd = 0
}

// ObserveFidelity implements FidelityProposer.
func (p *mfProposer) ObserveFidelity(t Trial) {
	if p.obsd >= len(p.rung) {
		return // defensive: an observation we did not propose
	}
	m := &p.rung[p.obsd]
	m.n = t.N
	m.obj = t.Result.Objective()
	p.obsd++
	p.inner.Observe(p.normalize(t))
	if p.obsd == len(p.rung) && len(p.pending) == 0 {
		p.decide()
	}
}

// normalize prepares a trial for the inner proposer. Full-fidelity trials
// pass through unchanged; partial-fidelity times are scaled by 1/f — the
// first-order full-cost estimate under the monotone-cost contract — so a
// model-based inner tuner learns from every cheap screen on one comparable
// scale instead of starving on the few full runs. The estimate inherits
// whatever bias low fidelity has (a workload whose low fidelity flatters
// bad configurations biases the model the same way it biases promotion;
// see DESIGN.md §11), and full-fidelity observations of the promoted
// survivors are what correct it.
func (p *mfProposer) normalize(t Trial) Trial {
	if t.Result.FullFidelity() {
		return t
	}
	t.Result.Time /= t.Result.Fidelity
	return t
}

// decide closes the completed rung: promote the best next-width members to
// the next fidelity and early-stop the rest. Runs entirely on observed
// state, so the decision — and the TrialPruned order it emits — is the same
// no matter how the evaluations were scheduled.
func (p *mfProposer) decide() {
	objs := make([]float64, len(p.rung))
	ns := make([]int, len(p.rung))
	for i, m := range p.rung {
		objs[i], ns[i] = m.obj, m.n
	}
	order := sortByObjective(objs, ns, p.seed)

	next := p.ri + 1
	w := 0
	if next < len(p.widths) {
		w = p.widths[next]
	}
	if w > len(p.rung) {
		w = len(p.rung)
	}
	if w > 0 {
		p.pruneMembers(order[w:])
		cfgs := make([]Config, w)
		for i, at := range order[:w] {
			cfgs[i] = p.rung[at].cfg
		}
		p.ri = next
		p.setRung(cfgs, p.fids[next])
		return
	}
	// Bracket over. Members that never reached full fidelity are
	// early-stopped; a top rung's members are full evaluations and stand.
	if p.fids[p.ri] < 1 {
		p.pruneMembers(order)
	}
	p.bi++
	p.rung, p.pending, p.obsd = nil, nil, 0
}

// pruneMembers queues TrialPruned notices for the members at the given rung
// positions, in ascending trial order.
func (p *mfProposer) pruneMembers(at []int) {
	if len(at) == 0 {
		return
	}
	cut := make([]int, len(at))
	for i, j := range at {
		cut[i] = p.rung[j].n
	}
	sort.Ints(cut)
	p.prunes = append(p.prunes, cut...)
}

// PruneNotices implements FidelityProposer.
func (p *mfProposer) PruneNotices() []int {
	out := p.prunes
	p.prunes = nil
	return out
}

// Recommend implements Recommender when the inner proposer does.
func (p *mfProposer) Recommend() Config {
	if r, ok := p.inner.(Recommender); ok {
		return r.Recommend()
	}
	return Config{}
}

// Interface conformance checks.
var (
	_ Tuner              = (*MultiFidelityTuner)(nil)
	_ FidelityBatchTuner = (*MultiFidelityTuner)(nil)
	_ FidelityProposer   = (*mfProposer)(nil)
)
