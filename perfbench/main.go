// Command perfbench is the repository's end-to-end benchmark. It drives
// the tuning system from outside, through its public entry points, on one
// of three closed-loop workloads, checks the outputs, and prints every
// metric by name with its unit. See README.md in this directory.
//
//	bash perfbench/run.sh --workload model-session --seed 1 --seconds 36 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same loop with forwarding wrappers that time each layer boundary and
// reports the per-layer metrics. The last line of standard output is the
// result object; the full report (host, sample counts, shares) is written
// under .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outDir holds reports, traces and temporary repositories, relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// sample is what one attempted session produced.
type sample struct {
	idx     int
	ms      float64 // submit (or Spec.Job) to the done result
	firstMS float64 // submit to the first event of the session's stream
	outcome outcome
	// best identifies the best trial exactly: its configuration's JSON and
	// its objective. Traced and untraced runs of one session must agree.
	best      string
	objective float64
	// err explains a failed output check on this session.
	err error
}

// env is one set-up instance of a workload.
type env interface {
	// session runs session idx to completion; tr is nil when untraced.
	session(idx int, tr *Tracer) sample
	// defaultObjective measures session idx's target under its default
	// configuration on a fresh target instance.
	defaultObjective(idx int) (float64, error)
	// check runs the workload's own output checks after the loop.
	check(samples []sample) error
	// finish gathers counters that live in the program (pool retries).
	finish(tr *Tracer)
	close()
}

// workload describes one benchmark workload.
type workload struct {
	name    string
	why     string
	clients int // closed-loop clients
	// quality is how many sessions, the first of each round, speedup_x
	// covers. Every round completes at least these, so speedup_x is fixed
	// by the seed.
	quality int
	setups  int // set-ups per round; setup_s is the median of them all
	setup   func(seed int64, tr *Tracer) (env, error)
}

var workloads = []workload{modelSession, fleetSweep, daemonWarm}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: model-session, fleet-sweep or daemon-warm")
	seed := flag.Int64("seed", 1, "base seed; session seeds rotate from it")
	seconds := flag.Float64("seconds", 36, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload model-session|fleet-sweep|daemon-warm --seed N --seconds S --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Repositories an interrupted run left behind (each is ~70 MB).
	stale, _ := filepath.Glob(filepath.Join(outDir, "repo-*"))
	for _, dir := range stale {
		_ = os.RemoveAll(dir)
	}
	h := hostInfo(*seed)
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(w, *seed, *seconds)
	} else {
		rep, err = runPlain(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.Host = h
	rep.Workload = w.name
	rep.Why = w.why
	path := filepath.Join(outDir, fmt.Sprintf("%s-trace%d.json", w.name, *trace))
	if data, err := json.MarshalIndent(rep, "", "  "); err == nil {
		_ = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	notes, _ := json.Marshal(map[string]any{"host": rep.Host, "samples": rep.Samples, "report": path})
	fmt.Println(string(notes))
	out, err := json.Marshal(rep.Result)
	if err != nil { // a NaN metric: nothing was measured
		fmt.Fprintln(os.Stderr, "perfbench: encoding the result:", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record written next to the result.
type report struct {
	Workload string         `json:"workload"`
	Why      string         `json:"why"`
	Host     host           `json:"host"`
	Samples  map[string]int `json:"samples"`
	// FailedFrac is failed sessions over attempted. It is reported here
	// rather than as a gated metric because it is 0 on a healthy run.
	FailedFrac float64 `json:"failed_frac"`
	// Rounds holds each round's figures; the first-event p95 is among
	// them, too noisy on a shared host to gate on.
	Rounds []round            `json:"rounds,omitempty"`
	Shares map[string]float64 `json:"shares_pct,omitempty"`
	Errors []string           `json:"errors,omitempty"`
	Result result             `json:"result"`
}

// loop runs clients closed-loop clients: each starts its next session only
// when its previous one has finished. Clients claim session indices in
// order from first and stop once the window has passed and at least
// minSessions indices are claimed. It returns the samples by index and the
// wall time.
func loop(e env, clients int, first int, window time.Duration, minSessions int, tr *Tracer) ([]sample, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	minSessions += first
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if time.Since(start) >= window && next.Load() >= int64(minSessions) {
					return
				}
				i := int(next.Add(1) - 1)
				s := e.session(i, tr)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(out, func(a, b int) bool { return out[a].idx < out[b].idx })
	return out, wall
}

// overheadPairs is how many sessions the traced run repeats on a traced
// and an untraced set-up to measure tracing overhead.
const overheadPairs = 30

// pairs runs sessions [0, n) once on each of two set-ups, traced on a and
// untraced on b, alternating which goes first, with the loop's client
// count. It returns both sets of samples by index.
func pairs(a, b env, tr *Tracer, clients, n int) (traced, plain []sample) {
	traced, plain = make([]sample, n), make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if i%2 == 0 {
					traced[i] = a.session(i, tr)
					plain[i] = b.session(i, nil)
				} else {
					plain[i] = b.session(i, nil)
					traced[i] = a.session(i, tr)
				}
			}
		}()
	}
	wg.Wait()
	return traced, plain
}

// checkSamples applies the checks every session must pass and returns the
// attempted and failed counts with any check errors.
func checkSamples(samples []sample) (attempted, failed int, errs []string) {
	for _, s := range samples {
		if s.outcome.failed() {
			failed++
			errs = append(errs, fmt.Sprintf("session %d failed: status %d, %d/%d trials, err %v",
				s.idx, s.outcome.Status, s.outcome.Trials, s.outcome.Budget, s.outcome.Err))
		} else if s.err != nil {
			errs = append(errs, fmt.Sprintf("session %d: %v", s.idx, s.err))
		}
	}
	return len(samples), failed, errs
}

// sameBest checks that two runs of the same sessions found the same best
// trials, reporting each mismatch.
func sameBest(label string, got, want []sample) []string {
	var errs []string
	for i := range want {
		if got[i].best != want[i].best || got[i].objective != want[i].objective {
			errs = append(errs, fmt.Sprintf("session %d: %s best %s (%v) != untraced best %s (%v)",
				i, label, got[i].best, got[i].objective, want[i].best, want[i].objective))
		}
	}
	return errs
}

// speedups returns, for each session, the default configuration's
// objective over the best objective found; speedup_x is their geometric
// mean.
func speedups(e env, samples []sample) ([]float64, error) {
	var ratios []float64
	for _, s := range samples {
		d, err := e.defaultObjective(s.idx)
		if err != nil {
			return nil, err
		}
		if !(d > 0 && s.objective > 0) {
			return nil, fmt.Errorf("speedup_x: session %d has objectives %v (default) and %v (best)", s.idx, d, s.objective)
		}
		ratios = append(ratios, d/s.objective)
	}
	return ratios, nil
}

// rounds is how many times an untraced run sets the workload up and runs
// its loop, each for an equal share of the measured seconds. Each timing
// and rate is the best over the rounds: other tenants of a shared host only
// ever slow the program down, so the least disturbed round is the steadiest
// measurement of it.
const rounds = 3

// roundStride separates the session ranges of the rounds: round r runs
// sessions r*roundStride, r*roundStride+1, ...
const roundStride = 1 << 20

// round summarizes one round's loop.
type round struct {
	Sessions     int     `json:"sessions"`
	Rate         float64 `json:"sessions_per_s"`
	P50          float64 `json:"session_ms_p50"`
	P95          float64 `json:"session_ms_p95"`
	FirstP50     float64 `json:"first_event_ms_p50"`
	FirstP95     float64 `json:"first_event_ms_p95"`
	BeyondP95    int     `json:"sessions_beyond_p95"`
	SetupSeconds float64 `json:"setup_s"`
	Failed       int     `json:"failed"`
}

func summarize(samples []sample, wall time.Duration) round {
	var ms, first []float64
	failed := 0
	for _, s := range samples {
		if s.outcome.failed() {
			failed++
			continue
		}
		ms = append(ms, s.ms)
		first = append(first, s.firstMS)
	}
	return round{
		Sessions:  len(ms),
		Rate:      float64(len(ms)) / wall.Seconds(),
		P50:       percentile(ms, 50),
		P95:       percentile(ms, 95),
		FirstP50:  percentile(first, 50),
		FirstP95:  percentile(first, 95),
		BeyondP95: beyond(len(ms), 95),
		Failed:    failed,
	}
}

// lowest and highest are the best value of one field over the rounds.
func lowest(rs []round, f func(round) float64) float64 {
	v := f(rs[0])
	for _, r := range rs[1:] {
		v = min(v, f(r))
	}
	return v
}

func highest(rs []round, f func(round) float64) float64 {
	v := f(rs[0])
	for _, r := range rs[1:] {
		v = max(v, f(r))
	}
	return v
}

// outcomes lists the samples' outcomes.
func outcomes(samples []sample) []outcome {
	out := make([]outcome, len(samples))
	for i, s := range samples {
		out[i] = s.outcome
	}
	return out
}

// runPlain is the untraced run. Each round sets the workload up (w.setups
// times, keeping the last), runs the loop on its own range of sessions and
// checks its outputs; the first quality sessions of every round give
// speedup_x.
func runPlain(w *workload, seed int64, seconds float64) (*report, error) {
	window := time.Duration(seconds / rounds * float64(time.Second))
	var setups []float64
	var rs []round
	var all []sample
	var errs []string
	var ratios []float64
	for r := 0; r < rounds; r++ {
		var e env
		for k := 0; k < w.setups; k++ {
			if e != nil {
				e.close()
			}
			t0 := time.Now()
			var err error
			if e, err = w.setup(seed, nil); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		samples, wall := loop(e, w.clients, r*roundStride, window, w.quality, nil)
		_, _, es := checkSamples(samples)
		errs = append(errs, es...)
		if err := e.check(samples); err != nil {
			errs = append(errs, err.Error())
		}
		q, err := speedups(e, samples[:w.quality])
		if err != nil {
			errs = append(errs, err.Error())
		}
		ratios = append(ratios, q...)
		rd := summarize(samples, wall)
		rd.SetupSeconds = setups[len(setups)-1]
		rs = append(rs, rd)
		all = append(all, samples...)
		e.close()
		debug.FreeOSMemory()
	}
	attempted, failed, _ := checkSamples(all)
	rep := &report{Samples: map[string]int{}, Rounds: rs}
	rep.Samples["setups"] = len(setups)
	rep.Samples["rounds"] = len(rs)
	rep.Samples["sessions"] = attempted
	rep.Samples["quality_sessions"] = w.quality
	rep.FailedFrac = failedFrac(outcomes(all))
	rep.Errors = errs
	rep.Result = result{
		Correct:   len(errs) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":            {median(setups), "s"},
			"sessions_per_s":     {highest(rs, func(r round) float64 { return r.Rate }), "1/s"},
			"session_ms_p50":     {lowest(rs, func(r round) float64 { return r.P50 }), "ms"},
			"session_ms_p95":     {lowest(rs, func(r round) float64 { return r.P95 }), "ms"},
			"first_event_ms_p50": {lowest(rs, func(r round) float64 { return r.FirstP50 }), "ms"},
			"speedup_x":          {geomean(ratios), "x"},
			"rss_peak_mb":        {peakRSSMB(), "MB"},
		},
	}
	return rep, nil
}

// runTraced is the traced run: the loop on a set-up with every wrapper in
// place gives the per-layer metrics. Then the first sessions run again on
// two fresh set-ups, each session once traced and once untraced. All three
// runs must find the same best trials (the wrappers are transparent), and
// the paired session times give the tracing overhead. The pairs use fresh
// set-ups because a set-up's state moves with use (the daemon's repository
// grows with every session it archives).
func runTraced(w *workload, seed int64, seconds float64) (*report, error) {
	tr := NewTracer()
	e, err := w.setup(seed, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	samples, _ := loop(e, w.clients, 0, time.Duration(seconds*float64(time.Second)), w.quality, tr)
	e.finish(tr)
	m, shares := layerMetrics(tr)
	spans := tr.Spans()
	rep := &report{Samples: map[string]int{}}
	attempted, failed, errs := checkSamples(samples)
	if err := e.check(samples); err != nil {
		errs = append(errs, err.Error())
	}
	e.close()
	tracedEnv, err := w.setup(seed, tr)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer tracedEnv.close()
	plainEnv, err := w.setup(seed, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced setup: %w", err)
	}
	defer plainEnv.close()
	n := min(overheadPairs, len(samples))
	traced, plain := pairs(tracedEnv, plainEnv, tr, w.clients, n)
	for _, ss := range [][]sample{traced, plain} {
		_, f, es := checkSamples(ss)
		failed += f
		errs = append(errs, es...)
	}
	errs = append(errs, sameBest("traced", samples[:n], plain)...)
	errs = append(errs, sameBest("traced (paired)", traced, plain)...)
	var ratios []float64
	for i := range plain {
		ratios = append(ratios, traced[i].ms/plain[i].ms)
	}
	m["trace.overhead_pct"] = metric{100 * (median(ratios) - 1), "%"}
	rep.Samples["sessions"] = len(samples)
	rep.Samples["spans"] = len(spans)
	rep.Samples["overhead_pairs"] = n
	rep.Shares = shares
	rep.Errors = errs
	rep.Result = result{Correct: len(errs) == 0, Attempted: attempted + 2*n, Failed: failed, Metrics: m}
	if err := writeSpans(filepath.Join(outDir, w.name+"-spans.jsonl"), spans); err != nil {
		return nil, err
	}
	return rep, nil
}
