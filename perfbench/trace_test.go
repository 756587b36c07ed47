package main

import (
	"sync"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	session := Span{Name: spanSession, Start: 0, End: 100}
	children := []Span{
		{Name: "tuners.propose", Start: 0, End: 10},
		// Two workers evaluating at once: 20–60 and 30–70 cover 20–70.
		{Name: "sysmodel.run", Start: 20, End: 60},
		{Name: "dist.evaluate", Start: 30, End: 70},
		// Nested inside the evaluations; adds nothing.
		{Name: "sysmodel.run", Start: 40, End: 50},
		// Runs past the session's end; only 90–100 counts.
		{Name: "tuners.observe", Start: 90, End: 120},
	}
	// Covered: 0–10, 20–70, 90–100 = 70; the sum of durations would be 140.
	if got := selfNS(session, children); got != 30 {
		t.Errorf("self = %d, want 30", got)
	}
	if got := selfNS(session, nil); got != 100 {
		t.Errorf("self with no children = %d, want 100", got)
	}
	if got := unionNS([][2]int64{{0, 5}, {5, 10}}, 0, 100); got != 10 {
		t.Errorf("abutting intervals cover %d, want 10", got)
	}
	if got := unionNS([][2]int64{{200, 300}}, 0, 100); got != 0 {
		t.Errorf("an interval outside the window covers %d, want 0", got)
	}
}

func TestLayerMetricsFromParallelSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.NewID()
	tr.Record(Span{ID: root, Name: spanSession, Session: 1, Start: 0, End: 1000})
	tr.Record(Span{Name: "tuners.propose", Session: 1, Parent: root, Start: 0, End: 100})
	tr.Record(Span{Name: "engine.eval_window", Session: 1, Parent: root, Start: 100, End: 900})
	tr.Record(Span{Name: "sysmodel.run", Session: 1, Parent: root, Start: 100, End: 800})
	tr.Record(Span{Name: "dist.evaluate", Session: 1, Parent: root, Start: 150, End: 850})
	tr.Record(Span{Name: "dist.serve", Start: 200, End: 700})
	tr.Add("engine.batches", 2)
	tr.Add("engine.batch_configs", 7)
	m, shares := layerMetrics(tr)
	want := map[string]float64{
		"session.busy_s":          1000e-9,
		"tuners.propose.busy_s":   100e-9,
		"engine.self_s":           150e-9, // 1000 - (0–100 ∪ 100–850)
		"engine.eval_window_s":    800e-9,
		"engine.eval_covered_pct": 93.75, // 750 of the 800 ns window
		"engine.batch_size":       3.5,
		"dist.rpc_s":              200e-9, // 700 evaluating - 500 serving
		"dist.remote_share_pct":   50,
		"sysmodel.run.calls":      1,
	}
	for k, v := range want {
		if got := m[k].Value; got != v {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	if got := shares["tuners.propose"]; got != 10 {
		t.Errorf("propose share = %v%%, want 10%%", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	ran := false
	tr.Time("repro.job", 1, 0, func() { ran = true })
	tr.Add("engine.batches", 1)
	if !ran || tr.Record(Span{Name: "x"}) != 0 || tr.NewID() != 0 {
		t.Error("a nil tracer must run the timed call and record nothing")
	}
}

func TestTracerIsSafeForConcurrentWorkers(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Time("sysmodel.run", 1, 0, func() {})
				tr.Add("sysmodel.run.failed", 1)
			}
		}()
	}
	wg.Wait()
	ids := map[int64]bool{}
	for _, s := range tr.Spans() {
		ids[s.ID] = true
	}
	if len(ids) != 400 || tr.Count("sysmodel.run.failed") != 400 {
		t.Errorf("got %d distinct spans and %d counts, want 400 each", len(ids), tr.Count("sysmodel.run.failed"))
	}
}
