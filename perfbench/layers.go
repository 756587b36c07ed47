package main

// Span names recorded by the benchmark. "session" is the root of every
// session's spans; the rest sit at one layer boundary each (see wrap.go).
const spanSession = "session"

// busyLayers are the spans whose summed duration is reported as
// <name>.busy_s.
var busyLayers = []string{
	"repro.job", "tuners.new_proposer", "tuners.propose", "tuners.observe",
	"sysmodel.run", "dist.evaluate", "dist.serve",
	"daemon.create", "daemon.events", "daemon.delete",
}

// notChild are spans that do not count toward a session's children when
// computing engine self time: the evaluation window is the engine's own
// fan-out interval, and the first-event span lies inside daemon.events.
var notChild = map[string]bool{spanSession: true, "engine.eval_window": true, "daemon.events.first": true}

// layerMetrics aggregates the tracer's spans and counters into the
// per-layer metrics, and returns each busy layer's share of session time.
func layerMetrics(tr *Tracer) (map[string]metric, map[string]float64) {
	spans := tr.Spans()
	sum := map[string]int64{}
	calls := map[string]int64{}
	bySession := map[int64][]Span{}
	for _, s := range spans {
		sum[s.Name] += s.Dur()
		calls[s.Name]++
		if s.Session != 0 {
			bySession[s.Session] = append(bySession[s.Session], s)
		}
	}
	var self, window, covered int64
	for _, ss := range bySession {
		var root *Span
		var children, evals, windows []Span
		for i := range ss {
			switch s := ss[i]; {
			case s.Name == spanSession:
				root = &ss[i]
			case s.Name == "engine.eval_window":
				windows = append(windows, s)
			case !notChild[s.Name]:
				children = append(children, s)
				if s.Name == "sysmodel.run" || s.Name == "dist.evaluate" {
					evals = append(evals, s)
				}
			}
		}
		if root != nil {
			self += selfNS(*root, children)
		}
		for _, w := range windows {
			window += w.Dur()
			covered += w.Dur() - selfNS(w, evals)
		}
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	pct := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * float64(a) / float64(b)
	}
	m := map[string]metric{
		"session.busy_s":           {sec(sum[spanSession]), "s"},
		"engine.queue_wait_s":      {sec(sum["engine.queue_wait"]), "s"},
		"engine.self_s":            {sec(self), "s"},
		"engine.batches":           {float64(tr.Count("engine.batches")), "count"},
		"engine.eval_window_s":     {sec(window), "s"},
		"engine.eval_covered_pct":  {pct(covered, window), "%"},
		"tuners.propose.calls":     {float64(calls["tuners.propose"]), "count"},
		"tuners.propose.share_pct": {pct(sum["tuners.propose"], sum[spanSession]), "%"},
		"sysmodel.run.calls":       {float64(calls["sysmodel.run"]), "count"},
		"sysmodel.run.failed":      {float64(tr.Count("sysmodel.run.failed")), "count"},
		"dist.evaluate.calls":      {float64(calls["dist.evaluate"]), "count"},
		"dist.rpc_s":               {sec(sum["dist.evaluate"] - sum["dist.serve"]), "s"},
		"dist.remote_share_pct":    {pct(calls["dist.evaluate"], calls["dist.evaluate"]+calls["sysmodel.run"]), "%"},
		"dist.retries":             {float64(tr.Count("dist.retries")), "count"},
		"daemon.events.first_s":    {sec(sum["daemon.events.first"]), "s"},
		"daemon.rejected":          {float64(tr.Count("daemon.rejected")), "count"},
	}
	batchSize := 0.0
	if b := tr.Count("engine.batches"); b > 0 {
		batchSize = float64(tr.Count("engine.batch_configs")) / float64(b)
	}
	m["engine.batch_size"] = metric{batchSize, "count"}
	shares := map[string]float64{"engine.self": pct(self, sum[spanSession]), "engine.queue_wait": pct(sum["engine.queue_wait"], sum[spanSession])}
	for _, name := range busyLayers {
		m[name+".busy_s"] = metric{sec(sum[name]), "s"}
		shares[name] = pct(sum[name], sum[spanSession])
	}
	return m, shares
}
