package main

import (
	"fmt"
	"math/rand"
	"sort"

	repro "repro"
	"repro/internal/tune"
)

// The synthetic corpus is the repository a warm-started daemon session
// looks up. Records are built from the real systems: each carries the
// parameter names of its system's configuration space and trial vectors
// of that space's dimension, so a warm start transfers real seed configs,
// and its features are a real workload's features, jittered. Everything is
// drawn from one seed, so a seed always yields the same corpus.

// corpusSystems lists the systems and workloads the corpus covers, with the
// share of records each system gets.
var corpusSystems = []struct {
	system    string
	workloads []string
	share     float64
}{
	{"dbms", []string{"tpch", "oltp", "mixed"}, 0.5},
	{"spark", []string{"wordcount", "terasort", "pagerank", "kmeans"}, 0.25},
	{"hadoop", []string{"grep", "aggregation", "join", "wordcount", "terasort"}, 0.25},
}

// corpusScales are the input sizes (GB) records are drawn around.
var corpusScales = []float64{1, 2, 4, 8, 16, 32, 64}

// anchor is one exact workload the corpus holds a record for: the daemon
// workload's sessions map to these, so which past session a warm start
// transfers from never depends on what the benchmark itself archived.
type anchor struct {
	Workload string
	ScaleGB  float64
}

// corpusShape is one (system, workload, scale) point with its real
// feature map and parameter names.
type corpusShape struct {
	system, workload string
	names            []string
	features         map[string]float64
	keys             []string // sorted feature keys
}

func newShape(system, workload string, scale float64) (corpusShape, error) {
	t, err := repro.NewTarget(system, workload, 1, repro.TargetOptions{ScaleGB: scale})
	if err != nil {
		return corpusShape{}, err
	}
	d, ok := t.(tune.Describer)
	if !ok {
		return corpusShape{}, fmt.Errorf("corpus: %s/%s has no workload features", system, workload)
	}
	sh := corpusShape{system: system, workload: workload, names: t.Space().Names(), features: d.WorkloadFeatures()}
	for k := range sh.features {
		sh.keys = append(sh.keys, k)
	}
	sort.Strings(sh.keys)
	return sh, nil
}

// corpus generates a synthetic repository in chunks.
type corpus struct {
	rng     *rand.Rand
	anchors []corpusShape // dbms shapes the daemon workload queries, emitted first
	shapes  [][]corpusShape
	cum     []float64 // cumulative system shares
}

// newCorpus prepares a generator keyed by seed whose first records are
// exact anchors for the given dbms workloads.
func newCorpus(seed int64, anchors []anchor) (*corpus, error) {
	c := &corpus{rng: rand.New(rand.NewSource(seed))}
	for _, a := range anchors {
		sh, err := newShape("dbms", a.Workload, a.ScaleGB)
		if err != nil {
			return nil, err
		}
		c.anchors = append(c.anchors, sh)
	}
	var acc float64
	for _, cs := range corpusSystems {
		var shapes []corpusShape
		for _, wl := range cs.workloads {
			for _, gb := range corpusScales {
				sh, err := newShape(cs.system, wl, gb)
				if err != nil {
					return nil, err
				}
				shapes = append(shapes, sh)
			}
		}
		c.shapes = append(c.shapes, shapes)
		acc += cs.share
		c.cum = append(c.cum, acc)
	}
	return c, nil
}

// trialsPerRecord matches repro.WarmSeeds, so every record can hand a
// warm start its full seed set.
const trialsPerRecord = repro.WarmSeeds

// record draws one record of shape sh; jitter scales each feature by a
// factor within 1±jitter.
func (c *corpus) record(sh corpusShape, jitter float64) tune.SessionRecord {
	feats := make(map[string]float64, len(sh.keys))
	for _, k := range sh.keys {
		feats[k] = sh.features[k] * (1 + jitter*(2*c.rng.Float64()-1))
	}
	rec := tune.SessionRecord{System: sh.system, Workload: sh.workload, ParamNames: sh.names, Features: feats}
	base := 10 + 90*c.rng.Float64()
	for i := 0; i < trialsPerRecord; i++ {
		v := make([]float64, len(sh.names))
		for j := range v {
			v[j] = c.rng.Float64()
		}
		rec.Trials = append(rec.Trials, tune.TrialRecord{Vector: v, Time: base * (0.6 + 0.8*c.rng.Float64())})
	}
	return rec
}

// next returns the next n records: the anchors first (exact features), then
// jittered records of every system.
func (c *corpus) next(n int) []tune.SessionRecord {
	out := make([]tune.SessionRecord, 0, n)
	for len(out) < n && len(c.anchors) > 0 {
		out = append(out, c.record(c.anchors[0], 0))
		c.anchors = c.anchors[1:]
	}
	for len(out) < n {
		u := c.rng.Float64() * c.cum[len(c.cum)-1]
		sys := sort.SearchFloat64s(c.cum, u)
		sys = min(sys, len(c.shapes)-1)
		shapes := c.shapes[sys]
		out = append(out, c.record(shapes[c.rng.Intn(len(shapes))], 0.1))
	}
	return out
}
