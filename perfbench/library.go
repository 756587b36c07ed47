package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	repro "repro"
	"repro/internal/dist"
	"repro/internal/tune"
)

// sessionSeed derives session idx's seed from the run's base seed, so
// runs with nearby base seeds share no sessions.
func sessionSeed(base int64, idx int) int64 { return base*1_000_003 + int64(idx) }

var modelSession = workload{
	name:    "model-session",
	why:     "iTuned GP sessions on dbms: propose (GP fit, EI screen, Nelder-Mead polish) is nearly all the work",
	clients: 1,
	quality: 200,
	setups:  5,
	setup: func(seed int64, tr *Tracer) (env, error) {
		wls := []string{"tpch", "oltp", "mixed"}
		return newLibEnv(seed, tr, func(idx int) repro.Spec {
			return repro.Spec{
				System: "dbms", Workload: wls[idx%len(wls)], Tuner: "ituned",
				Seed: sessionSeed(seed, idx), Budget: repro.Budget{Trials: 60}, Parallel: 2,
			}
		}, false)
	},
}

var fleetSweep = workload{
	name:    "fleet-sweep",
	why:     "random search on spark/terasort over one local worker plus one loopback evaluator: simulation and the RPC lease path",
	clients: 1,
	quality: 60,
	setups:  5,
	setup: func(seed int64, tr *Tracer) (env, error) {
		return newLibEnv(seed, tr, func(idx int) repro.Spec {
			return repro.Spec{
				System: "spark", Workload: "terasort", Tuner: "random",
				Seed: sessionSeed(seed, idx), Budget: repro.Budget{Trials: 200}, Parallel: 1,
			}
		}, true)
	},
}

// fleetCompared is how many fleet-sweep sessions are re-run local-only to
// check that their event streams are byte-identical.
const fleetCompared = 3

// libEnv drives sessions through the library: Spec.Job, then
// Engine.SubmitContext and Run.Wait, one engine for the whole run.
type libEnv struct {
	eng  *repro.Engine
	spec func(idx int) repro.Spec
	// The fleet: one in-process evaluator on loopback, and the pool the
	// sessions lease to. nil without a fleet.
	pool    *dist.Pool
	evalSrv *http.Server
	served  chan struct{}  // closed once evalSrv has stopped serving
	streams map[int][]byte // event streams of the first fleetCompared sessions run
}

func newLibEnv(seed int64, tr *Tracer, spec func(int) repro.Spec, fleet bool) (*libEnv, error) {
	e := &libEnv{eng: repro.NewEngine(repro.EngineOptions{}), spec: spec, streams: map[int][]byte{}}
	if fleet {
		ev := dist.NewEvaluator(dist.EvaluatorOptions{Name: "perfbench-evaluator", Workers: 1})
		var h http.Handler = ev.Handler()
		if tr != nil {
			h = traceHandler(tr, h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		e.evalSrv = &http.Server{Handler: h}
		e.served = serve(e.evalSrv, ln)
		e.pool = dist.NewPool([]string{"http://" + ln.Addr().String()}, dist.PoolOptions{Name: "perfbench"})
		if e.pool.Slots() != 1 {
			e.close()
			return nil, fmt.Errorf("evaluator fleet has %d slots, want 1", e.pool.Slots())
		}
	}
	// Warm-up: one session outside the measured loop, so lazy set-up
	// (first target builds, first connections) is paid here.
	if s := e.session(-1, nil); s.outcome.failed() {
		e.close()
		return nil, fmt.Errorf("warm-up session failed: %v", s.outcome.Err)
	}
	return e, nil
}

func (e *libEnv) job(spec repro.Spec) (repro.Job, error) {
	job, err := spec.Job()
	if err == nil && e.pool != nil {
		job.Remote = e.pool.Backend(dist.SysModel{System: spec.System, Workload: spec.Workload, Seed: spec.Seed, Target: spec.Target})
	}
	return job, err
}

func (e *libEnv) session(idx int, tr *Tracer) sample {
	spec := e.spec(max(idx, 0))
	s := sample{idx: idx, outcome: outcome{Budget: spec.Budget.Trials}}
	t0 := time.Now()
	var st sessionTrace
	var start int64
	if tr != nil {
		start = tr.Now()
		st = sessionTrace{tr: tr, sid: int64(idx) + 1, root: tr.NewID()}
	}
	var job repro.Job
	var err error
	tr.Time("repro.job", st.sid, st.root, func() { job, err = e.job(spec) })
	if err != nil {
		s.outcome.Err = err
		return s
	}
	if tr != nil {
		st.submitted = tr.Now()
		job = traceJob(job, st)
	}
	run := e.eng.SubmitContext(context.Background(), job)
	sub, cancel := context.WithCancel(context.Background())
	<-run.EventsContext(sub)
	s.firstMS = msSince(t0)
	cancel()
	res, err := run.Wait(context.Background())
	s.ms = msSince(t0)
	if tr != nil {
		tr.Record(Span{ID: st.root, Name: spanSession, Session: st.sid, Start: start, End: tr.Now()})
	}
	if err != nil {
		s.outcome.Err = err
		return s
	}
	s.outcome.Trials = len(res.Trials)
	best, _ := json.Marshal(res.Best)
	s.best, s.objective = string(best), res.BestResult.Objective()
	if e.pool != nil && idx >= 0 && len(e.streams) < fleetCompared {
		e.streams[idx] = streamJSON(run.History())
	}
	return s
}

// streamJSON renders an event stream as one JSON line per event.
func streamJSON(evs []tune.Event) []byte {
	var b bytes.Buffer
	for _, ev := range evs {
		data, err := json.Marshal(ev)
		if err != nil {
			fmt.Fprintf(&b, "marshal error: %v\n", err)
			continue
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func (e *libEnv) defaultObjective(idx int) (float64, error) {
	return defaultObjective(e.spec(idx))
}

// defaultObjective runs spec's target once under its default configuration,
// on a fresh target instance, and returns the objective.
func defaultObjective(spec repro.Spec) (float64, error) {
	t, err := repro.NewTarget(spec.System, spec.Workload, spec.Seed, spec.Target)
	if err != nil {
		return 0, err
	}
	return t.Run(t.Space().Default()).Objective(), nil
}

// check re-runs the first fleet sessions local-only: evaluation is pure in
// (seed, run index, config), so their event streams must be byte-identical
// to the ones produced with the evaluator under load.
func (e *libEnv) check(samples []sample) error {
	if e.pool == nil {
		return nil
	}
	for _, s := range samples[:min(fleetCompared, len(samples))] {
		idx := s.idx
		job, err := e.spec(idx).Job()
		if err != nil {
			return err
		}
		run := e.eng.SubmitContext(context.Background(), job)
		if _, err := run.Wait(context.Background()); err != nil {
			return fmt.Errorf("local re-run of session %d: %w", idx, err)
		}
		if local := streamJSON(run.History()); !bytes.Equal(local, e.streams[idx]) {
			return fmt.Errorf("session %d: fleet event stream (%d bytes) differs from the local-only re-run (%d bytes)",
				idx, len(e.streams[idx]), len(local))
		}
	}
	return nil
}

func (e *libEnv) finish(tr *Tracer) {
	if e.pool != nil {
		tr.Add("dist.retries", e.pool.Retries())
	}
}

func (e *libEnv) close() {
	if e.evalSrv != nil {
		_ = e.evalSrv.Close()
		<-e.served
	}
}

// serve runs srv on ln in a goroutine and returns a channel closed when
// it has stopped (after srv.Close or srv.Shutdown).
func serve(srv *http.Server, ln net.Listener) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always an error; ErrServerClosed once stopped
	}()
	return done
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
