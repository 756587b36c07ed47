package engine

import (
	"context"
	"sync"

	"repro/internal/tune"
)

// RunState describes where a submitted run is in its lifecycle.
type RunState string

const (
	// RunPending: submitted, waiting for a scheduler slot.
	RunPending RunState = "pending"
	// RunRunning: holding a slot and evaluating trials.
	RunRunning RunState = "running"
	// RunPaused: paused between trials (its scheduler slot released).
	RunPaused RunState = "paused"
	// RunDone: finished with a result.
	RunDone RunState = "done"
	// RunFailed: finished with an error (including Stop/cancellation).
	RunFailed RunState = "failed"
)

// DefaultEventBuffer is how many events a run retains for replay when the
// job does not choose a buffer size. Sessions shorter than this behave
// exactly like the old unbounded log; longer sessions fold their oldest
// events into a compacted stream checkpoint.
const DefaultEventBuffer = 4096

// eventBaseBytes is the accounting estimate for one retained event's fixed
// footprint (struct, strings, channel bookkeeping); each configuration
// dimension adds eventDimBytes. Estimates, not measurements — healthz uses
// them to report order-of-magnitude stream memory per run.
const (
	eventBaseBytes = 256
	eventDimBytes  = 16
)

// Run is the handle to one submitted tuning session. It exposes the
// session's ordered event stream, pause/resume/stop control, and the final
// result. Handles are safe for concurrent use.
//
// Event retention is bounded: the run keeps the most recent Job.EventBuffer
// events in a ring and folds everything older into a compacted
// tune.StreamSummary. Subscribers attaching (or falling) behind the ring
// receive a synthetic stream_checkpoint/stream_lagged event carrying that
// summary and then the retained tail, so a run's memory stays O(buffer) no
// matter how long the session or how slow its subscribers.
type Run struct {
	job    Job
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	sem    chan struct{} // the owning engine's scheduler slots

	mu     sync.Mutex
	buf    []tune.Event  // event ring: grows to bufCap, then wraps
	head   int           // index of the oldest retained event once wrapped
	total  int           // events ever appended == Seq of the newest
	bufCap int           // retention bound; <0 means unbounded
	notify chan struct{} // closed and replaced on every append
	// summary compacts every event evicted from the ring; evictKind tracks
	// rung grouping across evictions (mirroring lastKind for appends).
	summary   tune.StreamSummary
	evictKind tune.EventKind
	memBytes  int // estimated bytes retained by the ring
	subs      int // live subscription goroutines (gauge)

	running    bool
	finished   bool
	holdsSlot  bool
	pauseCh    chan struct{} // non-nil while paused; closed on resume
	trialsDone int
	incumbent  tune.Event // last IncumbentImproved (zero until one arrives)
	// Multi-fidelity progress: pruned trials, and rung promotion decisions
	// (counted as maximal groups of consecutive TrialPruned events — a
	// rung's prune notices are always emitted contiguously).
	trialsPruned int
	rungsDecided int
	lastKind     tune.EventKind
	// Scenario progress: Pareto points admitted, guardrail violations, and
	// drift re-anchors, tracked as events are appended.
	paretoPoints        int
	guardrailViolations int
	driftDetections     int
	result              *tune.TuningResult
	err                 error
}

// Submit schedules job on the engine and returns its handle immediately.
// The run starts once a scheduler slot (one of Workers) frees up; trials
// inside the run are evaluated on job.Parallel workers (default 1), so
// total concurrency across an engine's submitted runs is Workers unless a
// job opts into inner parallelism. Use Stop or SubmitContext to cancel.
func (e *Engine) Submit(job Job) *Run {
	return e.SubmitContext(context.Background(), job)
}

// SubmitContext is Submit with a parent context: cancelling ctx stops the
// run as Stop would, and the run's session sees ctx's error.
func (e *Engine) SubmitContext(ctx context.Context, job Job) *Run {
	return e.submit(ctx, job, true)
}

// submit starts the run goroutine. record controls whether trial events
// are collected: RunJobs turns it off because it never hands out the
// handle, so an event log would be pure memory overhead.
func (e *Engine) submit(ctx context.Context, job Job, record bool) *Run {
	if ctx == nil {
		ctx = context.Background()
	}
	bufCap := job.EventBuffer
	if bufCap == 0 {
		bufCap = DefaultEventBuffer
	}
	rctx, cancel := context.WithCancel(ctx)
	r := &Run{
		job:    job,
		ctx:    rctx,
		cancel: cancel,
		done:   make(chan struct{}),
		sem:    e.sem,
		bufCap: bufCap,
		notify: make(chan struct{}),
	}
	go r.run(e, record)
	return r
}

func (r *Run) run(e *Engine, record bool) {
	// A run stopped while still queued must not wait for a slot: without
	// the ctx arm in acquireSlot, Stop on a pending run (or a daemon
	// DELETE on a queued session) would only take effect once earlier
	// sessions finished.
	if !r.acquireSlot() {
		r.finish(nil, r.ctx.Err())
		return
	}
	r.mu.Lock()
	r.running = true
	r.mu.Unlock()

	memoCap := r.job.MemoCap
	if memoCap == 0 {
		memoCap = e.o.CacheCap
	}
	sub := New(Options{
		Workers: max(r.job.Parallel, 1), Cache: e.o.Cache || r.job.Memo, CacheCap: memoCap,
		// Deliberately job.Remote only — never the engine's: an engine-level
		// backend is bound to one target's sysmodel and would evaluate other
		// jobs' trials against the wrong system.
		Remote:     r.job.Remote,
		Checkpoint: r.job.Checkpoint, CheckpointEvery: r.job.CheckpointEvery, Replay: r.job.Replay,
	})
	ctx := r.ctx
	if record {
		ctx = tune.WithMonitor(ctx, &tune.Monitor{OnEvent: r.observe, Gate: r.gate})
	}
	if sc := (tune.Scenario{Pareto: r.job.Pareto, Guardrail: r.job.Guardrail}); sc.Pareto || sc.Guardrail > 0 {
		ctx = tune.WithScenario(ctx, sc)
	}
	res, err := sub.Tune(ctx, r.job.Target, r.job.Tuner, r.job.Budget)
	r.archive(res, err)
	// The slot goes back before finish wakes waiters: once Wait returns,
	// the run holds no scheduler capacity.
	r.releaseSlot()
	r.finish(res, err)
}

// archive hands a successful run's session record to the job's Archive
// callback. It runs on the run goroutine before finish, so the record is
// handed off before Wait returns or SessionDone is emitted.
func (r *Run) archive(res *tune.TuningResult, err error) {
	if r.job.Archive == nil || err != nil || res == nil || len(res.Trials) == 0 {
		return
	}
	system, workload := r.job.names()
	var features map[string]float64
	if d, ok := r.job.Target.(tune.Describer); ok {
		features = d.WorkloadFeatures()
	}
	r.job.Archive(tune.NewSessionRecord(system, workload, features, res))
}

// acquireSlot claims one of the engine's scheduler slots, giving up if
// the run is cancelled first. It reports whether the slot is held.
func (r *Run) acquireSlot() bool {
	select {
	case r.sem <- struct{}{}:
		r.mu.Lock()
		r.holdsSlot = true
		r.mu.Unlock()
		return true
	case <-r.ctx.Done():
		return false
	}
}

// releaseSlot returns the scheduler slot if held; safe to call twice
// (the gate releases during a pause, the run releases at exit).
func (r *Run) releaseSlot() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.holdsSlot {
		r.holdsSlot = false
		<-r.sem
	}
}

// finish records the outcome, emits SessionDone, and releases waiters.
func (r *Run) finish(res *tune.TuningResult, err error) {
	r.mu.Lock()
	r.result, r.err = res, err
	r.finished = true
	r.appendLocked(tune.Event{Kind: tune.SessionDone, Final: res, Err: err})
	r.mu.Unlock()
	r.cancel()
	close(r.done)
}

// observe is the monitor sink: it appends a session event to the ring and
// wakes subscribers. Called with the session lock held, so it must not
// block — appending under the run lock is all it does.
func (r *Run) observe(ev tune.Event) {
	r.mu.Lock()
	r.appendLocked(ev)
	r.mu.Unlock()
}

func (r *Run) appendLocked(ev tune.Event) {
	r.total++
	ev.Seq = r.total
	switch ev.Kind {
	case tune.TrialDone:
		r.trialsDone++
	case tune.IncumbentImproved:
		r.incumbent = ev
	case tune.TrialPruned:
		r.trialsPruned++
		if r.lastKind != tune.TrialPruned {
			r.rungsDecided++
		}
	case tune.ParetoIncumbent:
		r.paretoPoints++
	case tune.GuardrailViolation:
		r.guardrailViolations++
	case tune.DriftDetected:
		r.driftDetections++
	}
	r.lastKind = ev.Kind
	if r.bufCap < 0 || len(r.buf) < r.bufCap {
		r.buf = append(r.buf, ev)
	} else {
		r.foldLocked(r.buf[r.head])
		r.memBytes -= eventBytes(r.buf[r.head])
		r.buf[r.head] = ev
		r.head = (r.head + 1) % r.bufCap
	}
	r.memBytes += eventBytes(ev)
	close(r.notify)
	r.notify = make(chan struct{})
}

// foldLocked compacts one evicted event into the run's stream summary, so a
// summary-then-tail replay leaves a subscriber in the same state as the full
// stream would have.
func (r *Run) foldLocked(ev tune.Event) {
	r.summary.CoveredThrough = ev.Seq
	switch ev.Kind {
	case tune.TrialDone:
		r.summary.TrialsDone++
		r.summary.SimTimeUsed = ev.SimTimeUsed
	case tune.IncumbentImproved:
		r.summary.BestTrial = ev.Trial
		if ev.Config.Valid() {
			r.summary.BestConfig = ev.Config.Map()
		}
		res := ev.Result
		r.summary.BestResult = &res
	case tune.TrialPruned:
		r.summary.TrialsPruned++
		if r.evictKind != tune.TrialPruned {
			r.summary.RungsDecided++
		}
	case tune.ParetoIncumbent:
		r.summary.ParetoPoints++
	case tune.GuardrailViolation:
		r.summary.GuardrailViolations++
	case tune.DriftDetected:
		r.summary.DriftDetections++
	}
	r.evictKind = ev.Kind
}

// eventBytes estimates one event's retained footprint for memory accounting.
func eventBytes(ev tune.Event) int {
	return eventBaseBytes + eventDimBytes*ev.Config.Dims()
}

// oldestLocked returns the Seq of the oldest retained event (total+1 when
// nothing is retained — the empty ring "starts" past everything appended).
func (r *Run) oldestLocked() int {
	return r.total - len(r.buf) + 1
}

// tailLocked copies the retained events with Seq > after, in order.
func (r *Run) tailLocked(after int) []tune.Event {
	oldest := r.oldestLocked()
	if after < oldest-1 {
		after = oldest - 1
	}
	n := r.total - after
	if n <= 0 {
		return nil
	}
	out := make([]tune.Event, n)
	for i := 0; i < n; i++ {
		out[i] = r.buf[(r.head+(after-oldest+1)+i)%len(r.buf)]
	}
	return out
}

// Progress reports how many trials have completed and the last
// incumbent-improvement event (ok is false until the first improvement).
// O(1), tracked as events are appended — status endpoints poll this
// instead of rescanning History.
func (r *Run) Progress() (trialsDone int, incumbent tune.Event, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trialsDone, r.incumbent, r.incumbent.Kind == tune.IncumbentImproved
}

// FidelityProgress reports multi-fidelity progress: how many recorded
// trials a rung decision has early-stopped, and how many pruning rung
// decisions have been made. Both are zero for single-fidelity sessions.
// O(1), tracked as events are appended.
func (r *Run) FidelityProgress() (trialsPruned, rungsDecided int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trialsPruned, r.rungsDecided
}

// ScenarioProgress reports scenario-class progress: Pareto points admitted
// to the front, guardrail violations observed, and drift re-anchors. All are
// zero for plain single-objective sessions. O(1), tracked as events are
// appended.
func (r *Run) ScenarioProgress() (paretoPoints, guardrailViolations, driftDetections int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.paretoPoints, r.guardrailViolations, r.driftDetections
}

// MemoryBytes estimates the bytes the run's event ring currently retains.
// Tracked incrementally on append/evict; healthz sums it across sessions to
// report stream memory without rescanning logs.
func (r *Run) MemoryBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.memBytes
}

// Subscribers reports how many event subscriptions are currently live —
// an observability gauge, used by tests to assert that disconnected
// subscribers are cleaned up.
func (r *Run) Subscribers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.subs
}

// gate blocks while the run is paused, returning when resumed or when the
// run's context is cancelled. The session consults it before each trial.
// While paused the run gives its scheduler slot back — paused sessions
// must not starve queued ones — and re-acquires one on resume.
func (r *Run) gate() {
	for {
		r.mu.Lock()
		ch := r.pauseCh
		r.mu.Unlock()
		if ch == nil {
			return
		}
		r.releaseSlot()
		select {
		case <-ch:
		case <-r.ctx.Done():
		}
		if !r.acquireSlot() {
			return // cancelled; the session will observe ctx and stop
		}
	}
}

// Pause suspends the run at its next trial boundary: evaluations already
// in flight finish and their trials are recorded (a Stop issued during
// the pause can therefore still be preceded by those final records), but
// no further trials start until Resume. A paused run releases its
// scheduler slot (re-acquiring one on Resume), so pausing never starves
// queued sessions. Pausing a finished run has no effect.
func (r *Run) Pause() {
	r.mu.Lock()
	if r.pauseCh == nil && !r.finished {
		r.pauseCh = make(chan struct{})
	}
	r.mu.Unlock()
}

// Resume lifts a Pause.
func (r *Run) Resume() {
	r.mu.Lock()
	if r.pauseCh != nil {
		close(r.pauseCh)
		r.pauseCh = nil
	}
	r.mu.Unlock()
}

// Stop cancels the run. The session finishes with a cancellation error —
// matching the blocking facade, a stopped session is an error, not a short
// success — delivered through Wait and the SessionDone event.
func (r *Run) Stop() { r.cancel() }

// Done is closed when the run has finished and its result is available.
func (r *Run) Done() <-chan struct{} { return r.done }

// Wait blocks until the run finishes (or ctx, which may be nil, is
// cancelled — cancelling the wait does not stop the run) and returns the
// final result.
func (r *Run) Wait(ctx context.Context) (*tune.TuningResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-r.done:
		return r.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result returns the final result and error. Valid once Done is closed;
// before that both are nil.
func (r *Run) Result() (*tune.TuningResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.result, r.err
}

// Name returns the submitted job's name.
func (r *Run) Name() string { return r.job.Name }

// State reports the run's current lifecycle state. A pause requested on a
// still-queued run reports pending until the run starts and reaches its
// first trial boundary.
func (r *Run) State() RunState {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.finished && r.err != nil:
		return RunFailed
	case r.finished:
		return RunDone
	case r.running && r.pauseCh != nil:
		return RunPaused
	case r.running:
		return RunRunning
	}
	return RunPending
}

// History returns a snapshot of the retained events, in order. For sessions
// shorter than the event buffer (the default 4096 covers every bundled
// sysmodel session at default budgets) this is the complete history; longer
// sessions retain the most recent events, with the evicted prefix available
// as a summary through Summary.
func (r *Run) History() []tune.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tailLocked(0)
}

// Summary reports the compacted fold of every event evicted from the ring
// so far. ok is false while nothing has been evicted (the retained events
// are the full history).
func (r *Run) Summary() (s tune.StreamSummary, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.summary, r.summary.CoveredThrough > 0
}

// Events returns an ordered event stream for the run. Every call starts a
// fresh subscription that replays the run's retained history from the first
// event and then follows live until SessionDone, after which the channel
// closes. For sessions within the event buffer, late and repeated
// subscribers see the identical sequence; past it, the evicted prefix is
// replaced by one synthetic stream_checkpoint event carrying its compacted
// summary. The caller must drain the channel (or use EventsContext to
// abandon it early).
func (r *Run) Events() <-chan tune.Event {
	return r.EventsSince(context.Background(), 0)
}

// EventsContext is Events with a subscription lifetime: the stream closes
// early when ctx is cancelled, releasing the subscription's goroutine.
func (r *Run) EventsContext(ctx context.Context) <-chan tune.Event {
	return r.EventsSince(ctx, 0)
}

// EventsSince streams the run's events with Seq > after — the resume form
// behind SSE Last-Event-ID. Three regimes:
//
//   - after within the ring: the subscriber gets the retained tail and then
//     follows live. Reconnecting clients lose nothing.
//   - after (or the whole requested prefix) already evicted: the first
//     delivered event is a synthetic StreamCheckpoint whose Summary compacts
//     everything through its Seq; retained events follow from Seq+1.
//   - a live subscriber consuming slower than the session appends, once the
//     ring laps it: a synthetic StreamLagged (Summary plus Dropped count)
//     tells it what it missed, then the stream continues from the ring.
//
// Synthetic events are per-subscriber and never retained; a subscriber that
// keeps up never sees one. The channel closes after SessionDone or when ctx
// is cancelled.
func (r *Run) EventsSince(ctx context.Context, after int) <-chan tune.Event {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan tune.Event)
	r.mu.Lock()
	r.subs++
	r.mu.Unlock()
	go func() {
		defer close(out)
		defer func() {
			r.mu.Lock()
			r.subs--
			r.mu.Unlock()
		}()
		sent := after     // Seq of the last event delivered (or resumed past)
		attached := false // true once this subscriber has been handed ring state
		for {
			r.mu.Lock()
			// covered is the Seq the pending events resume after: sent, or
			// the end of the evicted prefix a synthetic event stands in for.
			covered := sent
			var pending []tune.Event
			if oldest := r.oldestLocked(); sent < oldest-1 {
				// The events after sent were evicted: compact them into one
				// synthetic event. A fresh or reconnecting subscriber gets a
				// checkpoint; one that was already attached and fell behind
				// gets a lagged notice with its personal drop count.
				sum := r.summary
				kind := tune.StreamCheckpoint
				if attached {
					kind = tune.StreamLagged
					sum.Dropped = oldest - 1 - sent
				}
				covered = oldest - 1
				pending = append(pending, tune.Event{Kind: kind, Seq: sum.CoveredThrough, Summary: &sum})
			}
			pending = append(pending, r.tailLocked(covered)...)
			notify := r.watchLocked()
			finished := r.finished
			r.mu.Unlock()
			if len(pending) == 0 {
				if finished {
					return
				}
				attached = true
				select {
				case <-notify:
				case <-ctx.Done():
					return
				}
				continue
			}
			// Keep watching the ring while stalled on a send: once the
			// session laps this subscriber, the events still queued here
			// are evicted, and it gets the lag notice instead of them.
			for len(pending) > 0 {
				select {
				case out <- pending[0]:
					sent, attached = pending[0].Seq, true
					pending = pending[1:]
				case <-notify:
					r.mu.Lock()
					if r.oldestLocked()-1 > max(sent, covered) {
						pending = nil
					}
					notify = r.watchLocked()
					r.mu.Unlock()
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out
}

// watchLocked returns the channel the next append closes, or nil once the
// run has finished: nothing more will be appended, and a subscriber
// stalled on a send must not spin on an already-closed channel.
func (r *Run) watchLocked() chan struct{} {
	if r.finished {
		return nil
	}
	return r.notify
}
