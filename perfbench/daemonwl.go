package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	repro "repro"
	"repro/internal/daemon"
	"repro/internal/tune"
	"repro/internal/tune/store"
)

// corpusSize is how many sessions the daemon's repository holds at start.
const corpusSize = 100_000

// corpusChunk is how many records one BulkAppend segment takes, bounding
// the generator's memory.
const corpusChunk = 10_000

// daemonWorkloads and daemonScales rotate per session, so warm lookups
// land on different neighbours. Each (workload, scale) pair has its own
// anchor record whose seed configurations all its sessions share, so
// speedup_x varies from corpus to corpus with the anchors; sixty pairs
// keep that variation small.
var (
	daemonWorkloads = []string{"tpch", "oltp", "mixed"}
	daemonScales    = []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36, 38, 40}
)

// daemonTrials is each daemon session's trial budget.
const daemonTrials = 16

var daemonWarm = workload{
	name:    "daemon-warm",
	why:     "two HTTP clients run warm-started random dbms sessions against a daemon with a 1e5-session repository: HTTP, SSE, scheduling and the store",
	clients: 2,
	quality: 1200,
	setups:  1,
	setup:   newDaemonEnv,
}

// daemonSpec is session idx's spec, as the client sends it.
func daemonSpec(base int64, idx int) repro.Spec {
	return repro.Spec{
		System:    "dbms",
		Workload:  daemonWorkloads[idx%len(daemonWorkloads)],
		Tuner:     "random",
		Seed:      sessionSeed(base, idx),
		Budget:    repro.Budget{Trials: daemonTrials},
		Target:    repro.TargetOptions{ScaleGB: daemonScales[(idx/len(daemonWorkloads))%len(daemonScales)]},
		WarmStart: true,
	}
}

// daemonEnv is one daemon on loopback over a freshly built repository.
type daemonEnv struct {
	seed   int64
	dir    string
	srv    *daemon.Server
	hs     *http.Server
	served chan struct{} // closed once hs has stopped serving
	base   string
	client *http.Client
	// seeds maps "workload/scale" to the configurations a warm start over
	// the corpus must transfer: its anchor record's best trials.
	seeds map[string][]string
}

func newDaemonEnv(seed int64, tr *Tracer) (env, error) {
	var anchors []anchor
	for _, gb := range daemonScales {
		for _, wl := range daemonWorkloads {
			anchors = append(anchors, anchor{Workload: wl, ScaleGB: gb})
		}
	}
	c, err := newCorpus(seed, anchors)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "repo-")
	if err != nil {
		return nil, err
	}
	e := &daemonEnv{seed: seed, dir: dir, seeds: map[string][]string{}}
	if err := e.build(c, anchors); err != nil {
		e.close()
		return nil, err
	}
	if e.srv, err = daemon.New(daemon.Options{RepoDir: dir}); err != nil {
		e.close()
		return nil, err
	}
	h := e.srv.Handler()
	if tr != nil {
		h = traceHandler(tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.hs = &http.Server{Handler: h}
	e.served = serve(e.hs, ln)
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	// Warm-up: build each system's feature index with one nearest lookup,
	// then run one session, so the measured loop starts warm.
	for _, cs := range corpusSystems {
		sh := c.shapes[0][0]
		for _, shapes := range c.shapes {
			if shapes[0].system == cs.system {
				sh = shapes[0]
			}
		}
		body, _ := json.Marshal(map[string]any{"system": cs.system, "features": sh.features})
		if err := e.call(http.MethodPost, "/repository/nearest", body, http.StatusOK); err != nil {
			e.close()
			return nil, fmt.Errorf("index warm-up: %w", err)
		}
	}
	if s := e.session(-1, nil); s.outcome.failed() || s.err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up session failed: status %d, err %v, check %v", s.outcome.Status, s.outcome.Err, s.err)
	}
	return e, nil
}

// build writes the corpus into the repository directory, recording the
// seed configurations each anchor will hand a warm start.
func (e *daemonEnv) build(c *corpus, anchors []anchor) error {
	st, err := store.Open(e.dir)
	if err != nil {
		return err
	}
	for n := 0; n < corpusSize; n += corpusChunk {
		recs := c.next(min(corpusChunk, corpusSize-n))
		if n == 0 {
			for i, a := range anchors {
				t, err := repro.NewTarget("dbms", a.Workload, 1, repro.TargetOptions{ScaleGB: a.ScaleGB})
				if err != nil {
					st.Close()
					return err
				}
				var seeds []string
				for _, cfg := range tune.TransferConfigs(recs[i], t.Space(), repro.WarmSeeds) {
					data, _ := json.Marshal(cfg)
					seeds = append(seeds, string(data))
				}
				e.seeds[anchorKey(a.Workload, a.ScaleGB)] = seeds
			}
		}
		if _, err := st.BulkAppend(recs); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

func anchorKey(wl string, gb float64) string { return wl + "/" + strconv.FormatFloat(gb, 'g', -1, 64) }

// call makes one request and checks its status.
func (e *daemonEnv) call(method, path string, body []byte, want int) error {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return nil
}

// sseFinal is the part of a session_done event the benchmark reads.
type sseFinal struct {
	Error string `json:"error"`
	Final *struct {
		Best       json.RawMessage `json:"best"`
		BestResult tune.Result     `json:"best_result"`
		Trials     []struct {
			Config json.RawMessage `json:"config"`
		} `json:"trials"`
	} `json:"final"`
}

// session is one client cycle: POST the spec, stream its events over SSE
// to session_done, then DELETE the finished session. The session time runs
// from the POST to session_done; the first-event time to the first SSE
// event.
func (e *daemonEnv) session(idx int, tr *Tracer) sample {
	spec := daemonSpec(e.seed, max(idx, 0))
	s := sample{idx: idx, outcome: outcome{Budget: spec.Budget.Trials}}
	body, _ := json.Marshal(spec)
	sid := strconv.Itoa(idx + 1)
	var start int64
	if tr != nil {
		start = tr.Now()
	}
	t0 := time.Now()
	req, _ := http.NewRequest(http.MethodPost, e.base+"/sessions", bytes.NewReader(body))
	req.Header.Set(sessionHeader, sid)
	resp, err := e.client.Do(req)
	if err != nil {
		s.outcome.Err = err
		return s
	}
	var created struct {
		ID string `json:"id"`
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.outcome.Status = resp.StatusCode
	if resp.StatusCode != http.StatusCreated {
		s.outcome.Err = fmt.Errorf("POST /sessions: %s", strings.TrimSpace(string(data)))
		return s
	}
	if err := json.Unmarshal(data, &created); err != nil {
		s.outcome.Err = err
		return s
	}
	done, err := e.stream(created.ID, sid, t0, &s)
	s.ms = msSince(t0)
	if tr != nil {
		tr.Record(Span{Name: spanSession, Session: int64(idx) + 1, Start: start, End: tr.Now()})
	}
	if err != nil {
		s.outcome.Err = err
		return s
	}
	req, _ = http.NewRequest(http.MethodDelete, e.base+"/sessions/"+created.ID, nil)
	req.Header.Set(sessionHeader, sid)
	if resp, err := e.client.Do(req); err != nil {
		s.outcome.Err = err
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			s.outcome.Err = fmt.Errorf("DELETE /sessions/%s: status %d", created.ID, resp.StatusCode)
		}
	}
	if done.Error != "" || done.Final == nil {
		s.outcome.Err = fmt.Errorf("session %s ended with error %q", created.ID, done.Error)
		return s
	}
	s.outcome.Trials = len(done.Final.Trials)
	s.best, s.objective = string(done.Final.Best), done.Final.BestResult.Objective()
	// The warm start must have proposed its anchor's seeds first.
	want := e.seeds[anchorKey(spec.Workload, spec.Target.ScaleGB)]
	if len(want) == 0 {
		s.err = fmt.Errorf("no warm-start seeds for %s", anchorKey(spec.Workload, spec.Target.ScaleGB))
	}
	for i, cfg := range want {
		if i >= len(done.Final.Trials) || !jsonEqual(done.Final.Trials[i].Config, []byte(cfg)) {
			s.err = fmt.Errorf("trial %d is not the warm-start seed %s", i+1, cfg)
			break
		}
	}
	return s
}

// stream reads the session's SSE stream to session_done, noting the first
// event's arrival.
func (e *daemonEnv) stream(id, sid string, t0 time.Time, s *sample) (sseFinal, error) {
	var done sseFinal
	req, _ := http.NewRequest(http.MethodGet, e.base+"/sessions/"+id+"/events", nil)
	req.Header.Set(sessionHeader, sid)
	resp, err := e.client.Do(req)
	if err != nil {
		return done, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return done, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	kind := ""
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return done, fmt.Errorf("SSE stream ended before session_done: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if s.firstMS == 0 {
				s.firstMS = msSince(t0)
			}
			if kind == string(repro.SessionDone) {
				err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &done)
				return done, err
			}
		}
	}
}

// jsonEqual compares two JSON documents by value.
func jsonEqual(a, b []byte) bool {
	var x, y any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	xa, _ := json.Marshal(x)
	ya, _ := json.Marshal(y)
	return bytes.Equal(xa, ya)
}

func (e *daemonEnv) defaultObjective(idx int) (float64, error) {
	return defaultObjective(daemonSpec(e.seed, idx))
}

func (e *daemonEnv) check([]sample) error { return nil }

func (e *daemonEnv) finish(*Tracer) {}

func (e *daemonEnv) close() {
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.hs.Shutdown(ctx)
		cancel()
		<-e.served
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.srv != nil {
		_ = e.srv.Close()
	}
	_ = os.RemoveAll(e.dir)
}
