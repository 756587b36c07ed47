package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/tune/store"
)

const longSpec = `{"system": "dbms", "workload": "tpch", "tuner": "random",
	"seed": %d, "budget": {"trials": 100000}}`

// TestAdmissionSessionCap: past -max-sessions, POST /sessions answers 429
// with a Retry-After hint; finishing (or deleting) a session readmits, and
// healthz counts the rejections.
func TestAdmissionSessionCap(t *testing.T) {
	ts, _ := newTestServerWith(t, Options{Workers: 1, MaxSessions: 2})
	var ids []string
	for i := 0; i < 2; i++ {
		id, code, _ := postSpec(t, ts, fmt.Sprintf(longSpec, i))
		if code != http.StatusCreated {
			t.Fatalf("POST %d = %d", i, code)
		}
		ids = append(ids, id)
	}
	resp, err := http.Post(ts.URL+"/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(longSpec, 9)))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST past the cap = %d, want 429 (%v)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "session cap") {
		t.Errorf("429 error = %q, want a session-cap explanation", msg)
	}

	// Stopping one unfinished session frees its slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+ids[0], nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, code, _ := postSpec(t, ts, fmt.Sprintf(longSpec, 10))
		if code == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("still rejected after freeing a slot: %d", code)
		}
		time.Sleep(20 * time.Millisecond)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Admission struct {
			MaxSessions int   `json:"max_sessions"`
			Rejected    int64 `json:"rejected"`
		} `json:"admission"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&hz)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz.Admission.MaxSessions != 2 || hz.Admission.Rejected < 1 {
		t.Errorf("healthz admission = %+v", hz.Admission)
	}
}

// TestAdmissionQueueCap: -max-queue bounds sessions waiting for a
// scheduler slot independently of the total session cap.
func TestAdmissionQueueCap(t *testing.T) {
	ts, _ := newTestServerWith(t, Options{Workers: 1, MaxQueue: 1})
	// One running (holds the only worker), one queued: both admitted.
	for i := 0; i < 2; i++ {
		if _, code, _ := postSpec(t, ts, fmt.Sprintf(longSpec, i)); code != http.StatusCreated {
			t.Fatalf("POST %d = %d", i, code)
		}
	}
	// Admission counts live states; wait until exactly one is pending.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, code, body := postSpec(t, ts, fmt.Sprintf(longSpec, 9))
		if code == http.StatusTooManyRequests {
			if msg, _ := body["error"].(string); !strings.Contains(msg, "queue depth") {
				t.Errorf("429 error = %q, want a queue-depth explanation", msg)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue cap never enforced; last POST = %d", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSSEResumeWithLastEventID: reconnecting with Last-Event-ID (or the
// ?after= query form) resumes the stream exactly past the delivered prefix.
func TestSSEResumeWithLastEventID(t *testing.T) {
	ts := newTestServer(t)
	id, code, _ := postSpec(t, ts, `{
		"system": "dbms", "workload": "tpch", "tuner": "random",
		"seed": 7, "budget": {"trials": 6}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	resp, err := http.Get(ts.URL + "/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	full := readSSE(t, resp)
	if len(full) < 4 || full[len(full)-1].Name != "session_done" {
		t.Fatalf("stream malformed: %d events", len(full))
	}
	cut := len(full) / 2
	resume := func(hdr, query string) []sseEvent {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/sessions/"+id+"/events"+query, nil)
		if hdr != "" {
			req.Header.Set("Last-Event-ID", hdr)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return readSSE(t, r)
	}
	for name, got := range map[string][]sseEvent{
		"header": resume(full[cut].ID, ""),
		"query":  resume("", "?after="+full[cut].ID),
	} {
		want := full[cut+1:]
		if len(got) != len(want) {
			t.Fatalf("%s resume from id %s: %d events, want %d", name, full[cut].ID, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Name != want[i].Name || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("%s resume event %d differs: %s %s vs %s %s",
					name, i, got[i].Name, got[i].Data, want[i].Name, want[i].Data)
			}
		}
	}
}

// TestSSECompactedSessionStreamsCheckpoint: a session longer than its event
// buffer serves reconnecting subscribers a stream_checkpoint first, whose
// summary accounts for the full run together with the retained tail.
func TestSSECompactedSessionStreamsCheckpoint(t *testing.T) {
	ts, _ := newTestServerWith(t, Options{Workers: 1, EventBuffer: 8})
	id, code, _ := postSpec(t, ts, `{
		"system": "dbms", "workload": "tpch", "tuner": "random",
		"seed": 3, "budget": {"trials": 20}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	waitDone(t, ts, id)
	resp, err := http.Get(ts.URL + "/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	evs := readSSE(t, resp)
	if evs[0].Name != "stream_checkpoint" {
		t.Fatalf("first event = %q, want stream_checkpoint", evs[0].Name)
	}
	var sum struct {
		Summary struct {
			CoveredThrough int `json:"covered_through"`
			TrialsDone     int `json:"trials_done"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(evs[0].Data, &sum); err != nil {
		t.Fatal(err)
	}
	tailDone := 0
	for _, ev := range evs[1:] {
		if ev.Name == "trial_done" {
			tailDone++
		}
	}
	if sum.Summary.TrialsDone+tailDone != 20 {
		t.Errorf("checkpoint %d + tail %d trial_done, want 20", sum.Summary.TrialsDone, tailDone)
	}
	if evs[len(evs)-1].Name != "session_done" {
		t.Errorf("stream ended with %q", evs[len(evs)-1].Name)
	}
}

// TestSSESubscriberCleanup is the disconnect-leak regression test: SSE
// clients that vanish mid-stream release their subscriptions (the per-run
// gauge healthz sums returns to zero) while the session keeps running.
func TestSSESubscriberCleanup(t *testing.T) {
	ts, srv := newTestServerWith(t, Options{Workers: 1})
	id, code, _ := postSpec(t, ts, fmt.Sprintf(longSpec, 1))
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	srv.mu.Lock()
	run := srv.sessions[id].Run
	srv.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	const n = 4
	for i := 0; i < n; i++ {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/sessions/"+id+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
	}
	waitFor(t, "subscribers to attach", func() bool { return run.Subscribers() == n })
	cancel()
	waitFor(t, "subscribers to clean up after disconnect", func() bool { return run.Subscribers() == 0 })
}

// waitFor polls cond with a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrainClosesStreamsAndRefusesWork: Drain ends open SSE streams with a
// terminal "draining" event, flips admission to 503, and checkpoints
// in-flight sessions so a later start can resume them.
func TestDrainClosesStreamsAndRefusesWork(t *testing.T) {
	dir := t.TempDir()
	ts, srv := newTestServerWith(t, Options{Workers: 1, RepoDir: dir})
	id, code, _ := postSpec(t, ts, fmt.Sprintf(longSpec, 2))
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	streamed := make(chan []sseEvent, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/sessions/" + id + "/events")
		if err != nil {
			streamed <- nil
			return
		}
		streamed <- readSSE(t, resp)
	}()
	waitFor(t, "the stream to attach", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.sessions[id].Run.Subscribers() > 0
	})

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	evs := <-streamed
	if evs == nil || len(evs) == 0 {
		t.Fatal("drained stream delivered nothing")
	}
	if last := evs[len(evs)-1]; last.Name != "draining" {
		t.Fatalf("stream ended with %q, want draining", last.Name)
	}
	if _, code, body := postSpec(t, ts, fmt.Sprintf(longSpec, 3)); code != http.StatusServiceUnavailable {
		t.Errorf("POST while draining = %d %v, want 503", code, body)
	}
	// The in-flight session's checkpoint survives for the next start.
	cps, err := srv.repo.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].SID != id {
		t.Fatalf("checkpoints after drain = %+v, want one for %s", cps, id)
	}
}

// TestRestartResumesInFlightSessions is the in-process crash-resume
// acceptance flow: a daemon is drained mid-session and a fresh daemon on
// the same repository resumes it — same session id, resumed flag set — and
// its final incumbent and recorded event stream are byte-identical to an
// uninterrupted run of the same spec and seed.
func TestRestartResumesInFlightSessions(t *testing.T) {
	// A cheap proposer with a big budget: the session runs for seconds —
	// orders of magnitude longer than the observe-checkpoint→drain window —
	// so the drain deterministically catches it mid-flight.
	spec := `{"system": "dbms", "workload": "tpch", "tuner": "random",
		"seed": 42, "budget": {"trials": 600}, "target": {"scale_gb": 2},
		"fidelity": {"strategy": "hyperband"}}`

	// Reference: the same spec, uninterrupted.
	tsRef := newTestServer(t)
	refID, code, _ := postSpec(t, tsRef, spec)
	if code != http.StatusCreated {
		t.Fatalf("reference POST = %d", code)
	}
	refSt := waitDone(t, tsRef, refID)
	refResp, err := http.Get(tsRef.URL + "/sessions/" + refID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	refEvents := readSSE(t, refResp)

	// Interrupted: drain mid-session, restart on the same repository.
	dir := t.TempDir()
	ts1, srv1 := newTestServerWith(t, Options{Workers: 1, RepoDir: dir})
	id, code, _ := postSpec(t, ts1, spec)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	// Wait until a checkpoint with real observations is durable — the resume
	// must genuinely replay history, not restart from scratch.
	waitFor(t, "a durable checkpoint with observations", func() bool {
		cps, err := srv1.repo.Checkpoints()
		return err == nil && len(cps) == 1 && cps[0].Trials > 0
	})
	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv1.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ts1.Close()
	srv1.Close()

	ts2, srv2 := newTestServerWith(t, Options{Workers: 1, RepoDir: dir})
	if srv2.resumed != 1 {
		t.Fatalf("restarted daemon resumed %d sessions, want 1", srv2.resumed)
	}
	st := waitDone(t, ts2, id)
	if st["state"] != "done" {
		t.Fatalf("resumed session = %v", st)
	}
	if r, _ := st["resumed"].(bool); !r {
		t.Errorf("status resumed flag = %v, want true", st["resumed"])
	}
	if got, want := bestTime(t, st), bestTime(t, refSt); got != want {
		t.Errorf("resumed best time = %v, uninterrupted = %v", got, want)
	}
	// The recorded event stream is byte-identical to the uninterrupted one.
	resp, err := http.Get(ts2.URL + "/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp)
	if len(events) != len(refEvents) {
		t.Fatalf("resumed stream has %d events, uninterrupted %d", len(events), len(refEvents))
	}
	for i := range refEvents {
		if events[i].ID != refEvents[i].ID || events[i].Name != refEvents[i].Name ||
			!bytes.Equal(events[i].Data, refEvents[i].Data) {
			t.Fatalf("event %d differs:\n  uninterrupted: %s %s\n  resumed:       %s %s",
				i, refEvents[i].Name, refEvents[i].Data, events[i].Name, events[i].Data)
		}
	}
	// Success reaps the checkpoint: nothing left to resurrect.
	waitFor(t, "the finished session's checkpoint to be reaped", func() bool {
		cps, err := srv2.repo.Checkpoints()
		return err == nil && len(cps) == 0
	})
}

// TestQueuedSessionSurvivesRestart: a session that never ran a trial (it
// was still queued when the daemon went down) is resumed from its
// admission-time checkpoint as a plain start.
func TestQueuedSessionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, srv1 := newTestServerWith(t, Options{Workers: 1, RepoDir: dir})
	// The first session holds the only worker; the second stays queued.
	if _, code, _ := postSpec(t, ts1, fmt.Sprintf(longSpec, 5)); code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	queued, code, _ := postSpec(t, ts1, `{
		"system": "dbms", "workload": "tpch", "tuner": "random",
		"seed": 6, "budget": {"trials": 3}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST queued = %d", code)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv1.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ts1.Close()
	srv1.Close()

	ts2, srv2 := newTestServerWith(t, Options{Workers: 2, RepoDir: dir})
	if srv2.resumed != 2 {
		t.Fatalf("resumed %d sessions, want 2", srv2.resumed)
	}
	st := waitDone(t, ts2, queued)
	if st["state"] != "done" {
		t.Fatalf("queued session after restart = %v", st)
	}
	if n, _ := st["trials_done"].(float64); n != 3 {
		t.Errorf("trials_done = %v, want 3", st["trials_done"])
	}
}

// TestCheckpointWriteFailuresReported: a checkpoint write that fails
// mid-session (here the repository's checkpoints/ path is replaced by a
// regular file) shows in the session status as checkpoint_error, while
// last_checkpoint_trial keeps naming the last trial a restart would resume
// from.
func TestCheckpointWriteFailuresReported(t *testing.T) {
	dir := t.TempDir()
	ts, srv := newTestServerWith(t, Options{Workers: 1, RepoDir: dir})
	// Hyperband checkpoints at every rung boundary, so writes keep coming.
	id, code, _ := postSpec(t, ts, `{"system": "dbms", "workload": "tpch", "tuner": "random",
		"seed": 4, "budget": {"trials": 100000}, "fidelity": {"strategy": "hyperband"}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST = %d", code)
	}
	status := func() map[string]any { return getJSON(t, ts.URL+"/sessions/"+id) }
	var durable float64
	waitFor(t, "a durable checkpoint", func() bool {
		durable, _ = status()["last_checkpoint_trial"].(float64)
		return durable > 0
	})
	if st := status(); st["checkpoint_error"] != nil {
		t.Fatalf("checkpoint_error before any write failed: %v", st["checkpoint_error"])
	}

	// Swap the directory for a file while the session is paused, so it
	// cannot finish before a write hits the blocked path.
	srv.mu.Lock()
	run := srv.sessions[id].Run
	srv.mu.Unlock()
	run.Pause()
	ckpts := filepath.Join(dir, "checkpoints")
	// A write still in flight as the pause lands may recreate the
	// directory: retry until the file holds the path.
	waitFor(t, "the checkpoints path to be blocked", func() bool {
		_ = os.RemoveAll(ckpts)
		return os.WriteFile(ckpts, nil, 0o644) == nil
	})
	run.Resume()
	waitFor(t, "a failed checkpoint write", func() bool { return status()["checkpoint_error"] != nil })
	run.Stop()

	st := status()
	last, _ := st["last_checkpoint_trial"].(float64)
	done, _ := st["trials_done"].(float64)
	if last < durable || last >= done {
		t.Errorf("last_checkpoint_trial = %v, want at least %v (durable before the failure) and under %v trials done", last, durable, done)
	}
	if msg, _ := st["checkpoint_error"].(string); !strings.Contains(msg, "checkpoint") {
		t.Errorf("checkpoint_error = %q, want the store's write error", msg)
	}
}

// TestResumeFailuresReported: a checkpoint the restarted daemon cannot
// resume — here its spec names the retired "rff" surrogate tier, as a
// checkpoint written by an older build may — is dropped, and its sid and
// error are reported in /healthz; a good checkpoint beside it still
// resumes, and new sessions never reuse the failed sid.
func TestResumeFailuresReported(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range []store.SessionCheckpoint{
		{SID: "s3", Spec: json.RawMessage(`{"system": "dbms", "workload": "tpch", "tuner": "ituned",
			"seed": 1, "budget": {"trials": 4}, "surrogate": {"tier": "rff"}}`)},
		{SID: "s4", Spec: json.RawMessage(`{"system": "dbms", "workload": "tpch", "tuner": "random",
			"seed": 2, "budget": {"trials": 3}}`)},
	} {
		if err := st.SaveCheckpoint(cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ts, srv := newTestServerWith(t, Options{Workers: 1, RepoDir: dir})
	adm, _ := getJSON(t, ts.URL+"/healthz")["admission"].(map[string]any)
	if n, _ := adm["resume_failed"].(float64); n != 1 {
		t.Fatalf("resume_failed = %v, want 1 (admission %v)", adm["resume_failed"], adm)
	}
	errs, _ := adm["resume_errors"].(map[string]any)
	if msg, _ := errs["s3"].(string); !strings.Contains(msg, "rff") {
		t.Fatalf("resume_errors = %v, want s3 naming the rff tier", adm["resume_errors"])
	}
	if srv.resumed != 1 {
		t.Fatalf("resumed %d sessions, want 1", srv.resumed)
	}
	if st := waitDone(t, ts, "s4"); st["state"] != "done" {
		t.Fatalf("resumed session = %v", st)
	}
	id, code, _ := postSpec(t, ts, `{"system": "dbms", "workload": "tpch", "tuner": "random",
		"seed": 5, "budget": {"trials": 2}}`)
	if code != http.StatusCreated || id != "s5" {
		t.Fatalf("POST after restart = %d id %q, want 201 s5", code, id)
	}
	cps, err := srv.repo.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range cps {
		if cp.SID == "s3" {
			t.Fatal("the unresumable checkpoint was kept")
		}
	}
}

// TestUnlistableCheckpointsFailStartup: a repository whose checkpoints
// cannot be listed (the checkpoints path is a regular file) is a startup
// error, not a daemon that silently forgets its interrupted sessions.
func TestUnlistableCheckpointsFailStartup(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoints"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Workers: 1, RepoDir: dir})
	if err == nil {
		srv.Close()
		t.Fatal("New succeeded with an unlistable checkpoints directory")
	}
	if !strings.Contains(err.Error(), "checkpoints") {
		t.Errorf("New error = %v, want the listing error", err)
	}
	// The failed start released the repository's process lock.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("repository still locked after the failed start: %v", err)
	}
	st.Close()
}

// TestHealthzReportsFoldFailures: a WAL fold that fails under an archive
// write (here a fresh repository's first segment path is taken by a
// directory) leaves the write successful and shows in the /healthz
// repository summary.
func TestHealthzReportsFoldFailures(t *testing.T) {
	dir := t.TempDir()
	ts, srv := newTestServerWith(t, Options{Workers: 1, RepoDir: dir})
	srv.repo.CompactEvery = 1
	if err := os.MkdirAll(filepath.Join(dir, "seg-000000.seg", "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	rec := `{"system": "dbms", "workload": "tpch", "param_names": ["x"],
	         "trials": [{"vector": [0.5], "time": 10}]}`
	resp, err := http.Post(ts.URL+"/repository/sessions", "application/json", strings.NewReader(rec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("import = %d, want 201 despite the failed fold", resp.StatusCode)
	}
	repo, _ := getJSON(t, ts.URL+"/healthz")["repository"].(map[string]any)
	if n, _ := repo["fold_failures"].(float64); n != 1 {
		t.Fatalf("fold_failures = %v, want 1 (repository %v)", repo["fold_failures"], repo)
	}
	if msg, _ := repo["fold_error"].(string); !strings.Contains(msg, "segment") {
		t.Errorf("fold_error = %q, want the segment write error", msg)
	}
}
