package main

import (
	"context"
	"net/http"
	"strconv"
	"strings"

	repro "repro"
	"repro/internal/tune"
)

// The forwarding wrappers below time public calls into one layer each and
// change nothing else: every method forwards to the wrapped value, and the
// optional interfaces the engine looks for (Recommender, SessionAware,
// ConcurrentTarget, Describer) are forwarded too, so a traced session
// produces the same trials as an untraced one. The output checks prove it.

// sessionTrace ties the spans of one tuning session together.
type sessionTrace struct {
	tr        *Tracer
	sid, root int64 // session id and the session span's id
	submitted int64 // tracer time the session was submitted
}

// tracedTuner wraps a BatchTuner: NewProposer is timed, and the time from
// submission to NewProposer is the engine's queue wait.
type tracedTuner struct {
	inner tune.BatchTuner
	st    sessionTrace
}

func (t *tracedTuner) Name() string { return t.inner.Name() }

func (t *tracedTuner) Tune(ctx context.Context, target tune.Target, b tune.Budget) (*tune.TuningResult, error) {
	return t.inner.Tune(ctx, target, b)
}

func (t *tracedTuner) NewProposer(target tune.Target, b tune.Budget) (tune.Proposer, error) {
	st := t.st
	start := st.tr.Now()
	st.tr.Record(Span{Name: "engine.queue_wait", Session: st.sid, Parent: st.root, Start: st.submitted, End: start})
	p, err := t.inner.NewProposer(target, b)
	st.tr.Record(Span{Name: "tuners.new_proposer", Session: st.sid, Parent: st.root, Start: start, End: st.tr.Now()})
	if err != nil {
		return nil, err
	}
	return &tracedProposer{inner: p, st: st}, nil
}

// tracedProposer times Propose and Observe, counts batches, and records
// each batch's evaluation window: from Propose returning to the first
// Observe of its results, which is the engine's fan-out wall time.
type tracedProposer struct {
	inner    tune.Proposer
	st       sessionTrace
	proposed int64 // end of the last non-empty Propose; 0 once observed
}

func (p *tracedProposer) Propose(n int) []tune.Config {
	st := p.st
	start := st.tr.Now()
	cfgs := p.inner.Propose(n)
	end := st.tr.Now()
	st.tr.Record(Span{Name: "tuners.propose", Session: st.sid, Parent: st.root, Start: start, End: end})
	if k := min(len(cfgs), n); k > 0 {
		st.tr.Add("engine.batches", 1)
		st.tr.Add("engine.batch_configs", int64(k))
		p.proposed = end
	}
	return cfgs
}

func (p *tracedProposer) Observe(t tune.Trial) {
	st := p.st
	start := st.tr.Now()
	if p.proposed != 0 {
		st.tr.Record(Span{Name: "engine.eval_window", Session: st.sid, Parent: st.root, Start: p.proposed, End: start})
		p.proposed = 0
	}
	p.inner.Observe(t)
	st.tr.Record(Span{Name: "tuners.observe", Session: st.sid, Parent: st.root, Start: start, End: st.tr.Now()})
}

// Recommend forwards to the wrapped proposer; without one it returns the
// zero Config, which is what the engine uses when no Recommender exists.
func (p *tracedProposer) Recommend() tune.Config {
	if r, ok := p.inner.(tune.Recommender); ok {
		return r.Recommend()
	}
	return tune.Config{}
}

// BindSession forwards the live session to a session-aware proposer.
func (p *tracedProposer) BindSession(s *tune.Session) {
	if sa, ok := p.inner.(tune.SessionAware); ok {
		sa.BindSession(s)
	}
}

// tracedTarget wraps a simulated system that evaluates by run index (all
// the systems this benchmark drives do), timing every local evaluation.
type tracedTarget struct {
	inner tune.ConcurrentTarget
	st    sessionTrace
}

func (t *tracedTarget) Name() string              { return t.inner.Name() }
func (t *tracedTarget) Space() *tune.Space        { return t.inner.Space() }
func (t *tracedTarget) ReserveRuns(n int64) int64 { return t.inner.ReserveRuns(n) }

func (t *tracedTarget) Run(cfg tune.Config) tune.Result {
	return t.RunIndexed(t.inner.ReserveRuns(1), cfg)
}

func (t *tracedTarget) RunIndexed(i int64, cfg tune.Config) tune.Result {
	st := t.st
	start := st.tr.Now()
	res := t.inner.RunIndexed(i, cfg)
	st.tr.Record(Span{Name: "sysmodel.run", Session: st.sid, Parent: st.root, Start: start, End: st.tr.Now()})
	if res.Failed {
		st.tr.Add("sysmodel.run.failed", 1)
	}
	return res
}

// WorkloadFeatures forwards to the wrapped target's Describer (nil if it
// has none).
func (t *tracedTarget) WorkloadFeatures() map[string]float64 {
	if d, ok := t.inner.(tune.Describer); ok {
		return d.WorkloadFeatures()
	}
	return nil
}

// tracedRemote wraps a fleet backend (Job.Remote), timing each remote
// evaluation from lease to result.
type tracedRemote struct {
	inner repro.RemoteBackend
	st    sessionTrace
}

func (r *tracedRemote) Slots() int { return r.inner.Slots() }

func (r *tracedRemote) Evaluate(ctx context.Context, idx int64, f float64, cfg tune.Config) (tune.Result, error) {
	st := r.st
	start := st.tr.Now()
	res, err := r.inner.Evaluate(ctx, idx, f, cfg)
	st.tr.Record(Span{Name: "dist.evaluate", Session: st.sid, Parent: st.root, Start: start, End: st.tr.Now()})
	return res, err
}

// traceJob wraps job's tuner, target and remote backend (when it has one)
// for the session st. Jobs whose tuner or target lacks the ask/tell or
// run-index face are returned unchanged; the benchmark's workloads use
// neither kind.
func traceJob(job repro.Job, st sessionTrace) repro.Job {
	if bt, ok := job.Tuner.(tune.BatchTuner); ok {
		job.Tuner = &tracedTuner{inner: bt, st: st}
	}
	if ct, ok := job.Target.(tune.ConcurrentTarget); ok {
		job.Target = &tracedTarget{inner: ct, st: st}
	}
	if job.Remote != nil {
		job.Remote = &tracedRemote{inner: job.Remote, st: st}
	}
	return job
}

// routeName maps a daemon or evaluator request to its span name, or ""
// for routes the benchmark does not time.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/sessions":
		return "daemon.create"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/sessions/") && strings.HasSuffix(p, "/events"):
		return "daemon.events"
	case r.Method == http.MethodDelete && strings.HasPrefix(p, "/sessions/"):
		return "daemon.delete"
	case r.Method == http.MethodPost && p == "/evaluate":
		return "dist.serve"
	}
	return ""
}

// sessionHeader carries the benchmark's session id on daemon requests, so
// server-side spans join the client's session. The daemon ignores it.
const sessionHeader = "X-Perfbench-Session"

// traceHandler is per-route middleware: each timed route gets one span per
// request, a refused submission (429) bumps daemon.rejected, and an SSE
// stream also records the time to its first event as daemon.events.first.
func traceHandler(tr *Tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := routeName(r)
		if name == "" {
			h.ServeHTTP(w, r)
			return
		}
		sid, _ := strconv.ParseInt(r.Header.Get(sessionHeader), 10, 64)
		rw := &recordingWriter{ResponseWriter: w, tr: tr, start: tr.Now(), status: http.StatusOK}
		h.ServeHTTP(rw, r)
		end := rw.lastOut
		if end == 0 {
			end = tr.Now()
		}
		tr.Record(Span{Name: name, Session: sid, Start: rw.start, End: end})
		if rw.status == http.StatusTooManyRequests {
			tr.Add("daemon.rejected", 1)
		}
		if name == "daemon.events" && rw.firstBody != 0 {
			tr.Record(Span{Name: "daemon.events.first", Session: sid, Start: rw.start, End: rw.firstBody})
		}
	})
}

// recordingWriter notes the response status, when the first body bytes
// were written, and when the last write or flush returned: a route's span
// ends there, once its response is handed to the connection. It forwards
// Flush and exposes the wrapped writer through Unwrap, so streaming and
// http.ResponseController keep working.
type recordingWriter struct {
	http.ResponseWriter
	tr        *Tracer
	start     int64
	status    int
	firstBody int64
	lastOut   int64
}

func (w *recordingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordingWriter) Write(b []byte) (int, error) {
	if w.firstBody == 0 && len(b) > 0 {
		w.firstBody = w.tr.Now()
	}
	n, err := w.ResponseWriter.Write(b)
	w.lastOut = w.tr.Now()
	return n, err
}

func (w *recordingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	w.lastOut = w.tr.Now()
}

func (w *recordingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
