// Package engine is the concurrent tuning engine: it runs ask/tell tuners
// on the one drive loop (tune.Drive) with an evaluator that fans each
// proposed batch out to a worker pool and a remote fleet, memoizes repeated
// evaluations in a config-keyed cache, and serves checkpointed history on
// resume; and it schedules many independent (target, tuner) sessions
// concurrently.
//
// Determinism is the design constraint everything here bends around: for a
// fixed seed the engine produces bit-identical results at any worker count.
// Three rules make that true:
//
//  1. Proposers are single-threaded. The drive loop asks for a batch, the
//     evaluator runs it, and the loop tells the proposer every outcome in
//     proposal order ("ordered observation merge") — never in completion
//     order.
//  2. Run-index reservation. Targets implementing tune.ConcurrentTarget key
//     their run-to-run noise by a reserved index, assigned in proposal
//     order, so a trial's noise does not depend on which worker ran it
//     first. Targets without the interface are evaluated sequentially.
//  3. Cache decisions happen on the driver goroutine, before and after the
//     fan-out, never inside it.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/tune"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds total concurrency (default: GOMAXPROCS): concurrent
	// trial evaluations in a single Tune/Drive session, or concurrent
	// sessions in RunJobs (whose jobs evaluate sequentially inside, so
	// the bounds never multiply).
	Workers int
	// Cache enables the per-session config-keyed result memo cache:
	// proposing an already-evaluated configuration returns the memoized
	// result instead of a fresh noisy run, so converged tuners stop
	// paying wall-clock for repeat proposals. Off by default because
	// repeated measurements of a noisy target are sometimes deliberate
	// (e.g. multi-probe trace capture) — without the cache the engine
	// reproduces the blocking facade exactly.
	Cache bool
	// CacheCap bounds the memo cache to this many retained results,
	// evicting by cost-aware GDSF (see gdsfMemo): entries are valued by
	// hit frequency × simulated seconds a hit saves, with an aging clock
	// so stale expensive entries eventually yield. 0 keeps the historical
	// unbounded map. Setting CacheCap implies Cache. The retained set and
	// all results remain deterministic at any worker count — eviction
	// decisions happen in batch order on the driver goroutine, with exact
	// priority ties broken by insertion order.
	CacheCap int
	// Remote, when non-nil, adds a remote evaluator fleet's slots to every
	// batch fan-out of Tune/Drive. The backend is bound to
	// one target's sysmodel, so it applies to direct single-session calls
	// only; submitted jobs carry their own Job.Remote and never inherit
	// this one (a fleet backend built for one target would silently
	// evaluate another job's trials against the wrong system).
	Remote RemoteBackend
	// Checkpoint, CheckpointEvery, and Replay are the crash-resume hooks
	// for direct Tune/Drive calls — Job carries its own
	// copies for submitted runs. See Job.Checkpoint/Job.Replay.
	Checkpoint      func(tune.CheckpointState)
	CheckpointEvery int
	Replay          *tune.Replay
}

// Engine evaluates tuning sessions concurrently.
type Engine struct {
	o   Options       // as given, with Workers defaulted
	sem chan struct{} // scheduler slots for Submit/RunJobs
}

// New returns an engine with the given options.
func New(o Options) *Engine {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{o: o, sem: make(chan struct{}, o.Workers)}
}

// Workers returns the configured parallelism.
func (e *Engine) Workers() int { return e.o.Workers }

// Tune runs tuner against target under b. Tuners with an ask/tell form
// (tune.FidelityBatchTuner, then tune.BatchTuner) run on tune.Drive with the
// engine's parallel evaluator; everything else (inherently sequential
// tuners: online/adaptive controllers, diagnose-act loops) falls back to
// the blocking Tune facade unchanged. Both paths give identical results at
// any worker count for a fixed seed.
func (e *Engine) Tune(ctx context.Context, target tune.Target, tuner tune.Tuner, b tune.Budget) (*tune.TuningResult, error) {
	switch t := tuner.(type) {
	case tune.FidelityBatchTuner:
		fp, err := t.NewFidelityProposer(target, b)
		if err != nil {
			return nil, err
		}
		return e.drive(ctx, tuner.Name(), target, b, fp, false)
	case tune.BatchTuner:
		p, err := t.NewProposer(target, b)
		if err != nil {
			return nil, err
		}
		return e.Drive(ctx, tuner.Name(), target, b, p)
	}
	if !e.o.Replay.Empty() {
		return nil, fmt.Errorf("engine: replay: tuner %q has no ask/tell proposal form; its sessions cannot be resumed", tuner.Name())
	}
	return tuner.Tune(ctx, target, b)
}

// Drive runs p against target under b on tune.Drive, evaluating each
// proposed batch on the worker pool and observing results in proposal
// order: the parallel counterpart of tune.DriveProposer, with the identical
// trial and event sequence for a fixed seed.
func (e *Engine) Drive(ctx context.Context, name string, target tune.Target, b tune.Budget, p tune.Proposer) (*tune.TuningResult, error) {
	return e.drive(ctx, name, target, b, tune.AsFidelity(p), true)
}

// drive runs fp on the one drive loop with the engine's evaluator. plain
// marks a Proposer lifted by tune.AsFidelity: only those sessions use the
// memo, because a fidelity schedule deliberately re-measures promoted
// configurations at a higher fidelity, and a memo keyed by configuration
// alone would return the wrong rung's result.
func (e *Engine) drive(ctx context.Context, name string, target tune.Target, b tune.Budget, fp tune.FidelityProposer, plain bool) (*tune.TuningResult, error) {
	ev := e.newEvaluator(target, b, plain)
	// Crash-resume serves the checkpointed prefix from its recording and
	// offers checkpoints at batch boundaries. Both need index-keyed noise:
	// without it a resumed session could not reproduce the uninterrupted one.
	if !e.o.Replay.Empty() {
		if ev.ct == nil {
			return nil, fmt.Errorf("engine: replay: target %q has no run-index determinism (tune.ConcurrentTarget); sessions on it cannot be resumed", target.Name())
		}
		ev.replay = e.o.Replay
	}
	var boundary func(*tune.Session)
	if ev.ct != nil && e.o.Checkpoint != nil {
		last := 0 // replayed trials are already checkpointed
		if ev.replay != nil {
			last = len(ev.replay.Trials)
		}
		boundary = func(s *tune.Session) { last = offerCheckpoint(e.o.Checkpoint, s, ev.ct, last, e.o.CheckpointEvery) }
	}
	res, err := tune.Drive(ctx, name, target, b, fp, ev, boundary)
	if err == nil && ev.replay != nil {
		return nil, replayErr(ev.replayed, len(ev.replay.Trials), "the session ended before the checkpointed history did (the fresh proposer stopped proposing, or the budget differs from the original spec's)")
	}
	return res, err
}

// evaluator is the engine's tune.Evaluator: it runs each proposed batch on
// the worker pool and the remote fleet, memoizes repeated configurations,
// and, while resuming, serves the checkpointed prefix from its recording.
type evaluator struct {
	target  tune.Target
	ct      tune.ConcurrentTarget         // nil: no run-index determinism
	cft     tune.ConcurrentFidelityTarget // ct's partial-fidelity path
	workers int
	remote  RemoteBackend // nil: all evaluation local
	cache   memo          // nil: memo off
	windows bool          // sim-time budget: evaluate in worker-sized windows

	replay   *tune.Replay // non-nil until the recorded prefix is served
	replayed int          // recorded trials served so far
}

func (e *Engine) newEvaluator(target tune.Target, b tune.Budget, plain bool) *evaluator {
	ev := &evaluator{target: target, workers: 1, windows: b.SimTime > 0}
	ev.ct, _ = target.(tune.ConcurrentTarget)
	if !plain {
		// A fidelity schedule evaluates by run index only when the
		// partial-fidelity path is index-keyed too.
		if ev.cft, _ = target.(tune.ConcurrentFidelityTarget); ev.cft == nil {
			ev.ct = nil
		}
	}
	if ev.ct != nil {
		// Parallel and remote evaluation ride on run-index reservation:
		// without an index-keyed noise stream results would depend on worker
		// scheduling, and an assignment could not name which draw of the
		// target's noise it evaluates. Plain targets run in order on one
		// local worker.
		ev.workers, ev.remote = e.o.Workers, e.o.Remote
	}
	if plain && (e.o.Cache || e.o.CacheCap > 0) {
		if e.o.CacheCap > 0 {
			ev.cache = newGDSFMemo(e.o.CacheCap)
		} else {
			ev.cache = newMapMemo()
		}
	}
	return ev
}

// Evaluate implements tune.Evaluator. Under a sim-time budget the
// exhaustion point is unknowable before running, so the batch is evaluated
// in worker-sized windows, each dispatched once the previous one is merged:
// waste past the cut is bounded by one window instead of one batch.
// Recorded trials are identical at any worker count either way. Caveat: a
// mid-window cut leaves the window's remaining reserved run indices
// unrecorded, so after such a session the target's counter may differ
// across worker counts; reuse a target for seed-sensitive comparisons only
// after trial-bounded sessions.
func (ev *evaluator) Evaluate(ctx context.Context, cands []tune.Candidate, merge func(tune.Result) bool) error {
	var rec []tune.ReplayTrial
	if ev.replay != nil {
		var err error
		if rec, err = ev.replayBatch(cands); err != nil {
			return err
		}
	}
	size := len(cands)
	if ev.windows {
		size = ev.workers + remoteSlots(ev.remote)
	}
	for off := 0; off < len(cands); off += size {
		end := min(off+size, len(cands))
		var part []tune.ReplayTrial
		if rec != nil {
			part = rec[off:end]
		}
		if more, err := ev.evalWindow(ctx, cands[off:end], part, merge); err != nil || !more {
			return err
		}
	}
	return nil
}

// evalWindow evaluates cands and merges them in proposal order, reporting
// whether the merge wants more. Memo lookups, duplicate folding and
// run-index reservation all happen here on the driver goroutine, in
// proposal order, so the outcome is independent of worker scheduling. Local
// and remote slots pull from one shared queue; every evaluation is pure in
// (seed, run index, fidelity, config), so which executor ran a candidate is
// invisible in the merged stream. rec, when non-nil, holds the recorded
// results to serve instead of evaluating.
func (ev *evaluator) evalWindow(ctx context.Context, cands []tune.Candidate, rec []tune.ReplayTrial, merge func(tune.Result) bool) (bool, error) {
	n := len(cands)
	results := make([]tune.Result, n)
	errs := make([]error, n)
	done := make([]chan struct{}, n) // nil: the result is known up front
	from := make([]int, n)           // position whose result serves this one
	keys := make([]string, n)        // memo key to store on merge, "" for none
	var jobs []int
	var firstAt map[string]int
	for i, c := range cands {
		from[i] = i
		if ev.cache != nil {
			key := configKey(c.Config)
			if r, ok := ev.cache.get(key); ok {
				results[i] = r
				continue
			}
			if at, ok := firstAt[key]; ok {
				from[i] = at
				continue
			}
			if firstAt == nil {
				firstAt = map[string]int{}
			}
			firstAt[key], keys[i] = i, key
		}
		if rec == nil {
			done[i] = make(chan struct{})
			jobs = append(jobs, i)
		}
	}

	bctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	// Once the merge stops (the window is merged, the session is cut, or a
	// lost evaluation aborted it), cancel whatever is still executing,
	// including outstanding remote leases, whose requests abort with bctx.
	// wg.Wait is bounded by the FidelityTarget and RemoteBackend contracts:
	// evaluations return promptly once their context is done, so a hanging
	// evaluation cannot wedge the scheduler or leak the run's slot.
	defer func() {
		cancel()
		wg.Wait()
	}()
	if len(jobs) > 0 {
		var start int64
		if ev.ct != nil {
			start = ev.ct.ReserveRuns(int64(len(jobs)))
		}
		type job struct {
			pos int
			idx int64
		}
		queue := make(chan job, len(jobs))
		for k, pos := range jobs {
			queue <- job{pos, start + int64(k)}
		}
		close(queue)
		slot := func(eval func(context.Context, int64, tune.Candidate) (tune.Result, error)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range queue {
					// A cancelled window skips the evaluation but still
					// closes done: the merge reaches a skipped slot only once
					// the session is cut, so its zero result is never recorded.
					if bctx.Err() == nil {
						results[j.pos], errs[j.pos] = eval(bctx, j.idx, cands[j.pos])
					}
					close(done[j.pos])
				}
			}()
		}
		for w := 0; w < min(ev.workers, len(jobs)); w++ {
			slot(ev.runLocal)
		}
		for w := 0; w < remoteSlots(ev.remote); w++ {
			slot(ev.runRemote)
		}
	}

	for i := range cands {
		j := from[i]
		if done[j] != nil {
			<-done[j]
		}
		// Infrastructure loss aborts the session: it is not a recordable
		// trial outcome.
		if errs[j] != nil && bctx.Err() == nil {
			return false, fmt.Errorf("engine: remote evaluation: %w", errs[j])
		}
		res := results[j]
		if rec != nil {
			res = rec[i].Result
		}
		if keys[i] != "" {
			ev.cache.put(keys[i], res)
		}
		if !merge(res) {
			return false, nil
		}
	}
	return true, nil
}

// runLocal evaluates c on this process: by reserved run index when the
// target has index-keyed noise, else on the target's own run counter.
func (ev *evaluator) runLocal(ctx context.Context, idx int64, c tune.Candidate) (tune.Result, error) {
	switch f := normFidelity(c.Fidelity); {
	case ev.ct == nil:
		return tune.RunCandidate(ctx, ev.target, c), nil
	case f == 0:
		return ev.ct.RunIndexed(idx, c.Config), nil
	default:
		return ev.cft.RunIndexedFidelity(ctx, idx, f, c.Config), nil
	}
}

// runRemote leases c at run index idx to the fleet.
func (ev *evaluator) runRemote(ctx context.Context, idx int64, c tune.Candidate) (tune.Result, error) {
	return ev.remote.Evaluate(ctx, idx, normFidelity(c.Fidelity), c.Config)
}

// configKey renders a configuration's exact unit-cube coordinates as a map
// key (hex float bits, so distinct points never collide).
func configKey(cfg tune.Config) string {
	v := cfg.Vector()
	var b strings.Builder
	b.Grow(len(v) * 17)
	for _, x := range v {
		b.WriteString(strconv.FormatUint(math.Float64bits(x), 16))
		b.WriteByte(',')
	}
	return b.String()
}
