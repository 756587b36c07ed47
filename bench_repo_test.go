package repro

// Repository-at-scale measurement harness (DESIGN.md §15): open cost,
// indexed NearestSession latency versus corpus size with the linear scan
// alongside, and the bounded memo cache's hit rate against the unbounded
// map. Building the million-session corpus takes minutes, so the harness is
// gated behind an environment variable and ordinary `go test` skips it:
//
//	REPRO_REPO_BENCH_OUT=BENCH_pr9.json go test -run '^TestRepositoryBenchReport$' -timeout 60m -v .
//
// REPRO_REPO_BENCH_SIZES overrides the corpus sizes (comma-separated;
// default 10000,100000,1000000). The command above produces
// BENCH_pr9.json; CI runs a 10k smoke against a throwaway output path.

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/tune"
	"repro/internal/tune/store"
)

type repoSizeBench struct {
	Sessions      int     `json:"sessions"`
	BuildS        float64 `json:"build_s"`
	OpenMS        float64 `json:"open_ms"`
	IndexBuildMS  float64 `json:"index_build_ms"`
	IndexedP50us  float64 `json:"indexed_nearest_p50_us"`
	IndexedP99us  float64 `json:"indexed_nearest_p99_us"`
	IndexedCount  int     `json:"indexed_queries"`
	MaterializeMS float64 `json:"materialize_ms"`
	ScanP50us     float64 `json:"scan_nearest_p50_us"`
	ScanP99us     float64 `json:"scan_nearest_p99_us"`
	ScanCount     int     `json:"scan_queries"`
}

type memoCacheBench struct {
	Trials      int     `json:"trials"`
	Distinct    int     `json:"distinct_configs"`
	Cap         int     `json:"gdsf_cap"`
	MapHitRate  float64 `json:"map_hit_rate"`
	GDSFHitRate float64 `json:"gdsf_hit_rate"`
	Recovery    float64 `json:"gdsf_recovery"` // gdsf hits / unbounded hits
}

type repoBenchReport struct {
	CPUs       int             `json:"cpus"`
	Repository []repoSizeBench `json:"repository"`
	// Indexed p99 at the largest corpus over p99 at the smallest — the
	// flat-latency claim (acceptance: ≤ 3 between 10k and 1M).
	P99Ratio  float64        `json:"nearest_p99_ratio_largest_vs_smallest,omitempty"`
	MemoCache memoCacheBench `json:"memo_cache"`
}

// TestRepositoryBenchReport writes the PR 9 benchmark JSON. Skipped unless
// REPRO_REPO_BENCH_OUT names the output file.
func TestRepositoryBenchReport(t *testing.T) {
	out := os.Getenv("REPRO_REPO_BENCH_OUT")
	if out == "" {
		t.Skip("set REPRO_REPO_BENCH_OUT=<path> (and optionally REPRO_REPO_BENCH_SIZES) to run the repository bench")
	}
	sizes := []int{10000, 100000, 1000000}
	if env := os.Getenv("REPRO_REPO_BENCH_SIZES"); env != "" {
		sizes = sizes[:0]
		for _, f := range strings.Split(env, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				t.Fatalf("REPRO_REPO_BENCH_SIZES: bad size %q", f)
			}
			sizes = append(sizes, n)
		}
	}
	report := repoBenchReport{CPUs: runtime.NumCPU()}
	for _, n := range sizes {
		report.Repository = append(report.Repository, benchRepoSize(t, n))
	}
	if k := len(report.Repository); k > 1 {
		first, last := report.Repository[0], report.Repository[k-1]
		if first.IndexedP99us > 0 {
			report.P99Ratio = last.IndexedP99us / first.IndexedP99us
		}
		t.Logf("indexed p99 ratio %d vs %d sessions: %.2fx (acceptance ≤ 3x)",
			last.Sessions, first.Sessions, report.P99Ratio)
		if last.OpenMS > 1000 {
			t.Logf("WARNING: open at %d sessions took %.0f ms (> 1 s)", last.Sessions, last.OpenMS)
		}
	}
	report.MemoCache = benchMemoCache(t)
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// benchSession draws one archived session: three-dimensional feature
// vectors over a fixed range (so late queries never exceed the index's
// build-time scale), one trial, a sprinkling of a second system to keep the
// per-system index honest.
func benchSession(rng *rand.Rand, i int) tune.SessionRecord {
	system := "dbms"
	if i%10 == 9 {
		system = "spark"
	}
	return tune.SessionRecord{
		System:   system,
		Workload: "w" + strconv.Itoa(i%16),
		Features: map[string]float64{
			"rows":  rng.Float64() * 1000,
			"ratio": rng.Float64(),
			"skew":  rng.Float64() * 10,
		},
		ParamNames: []string{"a", "b"},
		Trials: []tune.TrialRecord{{
			Vector: []float64{rng.Float64(), rng.Float64()},
			Time:   1 + rng.Float64(),
		}},
	}
}

// benchQuery stays strictly inside the corpus feature range (0.9× the
// generator's), keeping every lookup on the index fast path — the regime a
// repository serving its own workload population lives in.
func benchQuery(rng *rand.Rand) map[string]float64 {
	return map[string]float64{
		"rows":  rng.Float64() * 900,
		"ratio": rng.Float64() * 0.9,
		"skew":  rng.Float64() * 9,
	}
}

func pctileUS(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(p*float64(len(s)-1))]) / float64(time.Microsecond)
}

func benchRepoSize(t *testing.T, n int) repoSizeBench {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	buildStart := time.Now()
	const chunk = 50000
	batch := make([]tune.SessionRecord, 0, chunk)
	for built := 0; built < n; {
		batch = batch[:0]
		for len(batch) < chunk && built < n {
			batch = append(batch, benchSession(rng, built))
			built++
		}
		if _, err := s.BulkAppend(batch); err != nil {
			t.Fatal(err)
		}
	}
	buildS := time.Since(buildStart).Seconds()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Open cost: indexes and tail only, never the payloads.
	openStart := time.Now()
	s, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	openMS := float64(time.Since(openStart)) / float64(time.Millisecond)
	if s.Len() != n {
		t.Fatalf("built corpus has %d sessions, want %d", s.Len(), n)
	}

	queries := make([]map[string]float64, 256)
	for i := range queries {
		queries[i] = benchQuery(rng)
	}

	// The first lookup pays the lazy index build; report it separately.
	idxStart := time.Now()
	if _, ok := s.Nearest("dbms", queries[0]); !ok {
		t.Fatal("Nearest found nothing on a populated corpus")
	}
	indexBuildMS := float64(time.Since(idxStart)) / float64(time.Millisecond)

	// Warm untimed so the timed percentiles measure steady state, not the
	// first touches of freshly built tree pages.
	for _, q := range queries[:16] {
		s.Nearest("dbms", q)
	}
	lat := make([]time.Duration, 0, len(queries))
	for _, q := range queries {
		qStart := time.Now()
		if _, ok := s.Nearest("dbms", q); !ok {
			t.Fatal("Nearest found nothing on a populated corpus")
		}
		lat = append(lat, time.Since(qStart))
	}

	// Linear-scan baseline: materialize every record, then run the retained
	// oracle over the slice — what every lookup cost before the index.
	matStart := time.Now()
	all, err := s.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	var recs []tune.SessionRecord
	for _, st := range all {
		if st.Record.System == "dbms" {
			recs = append(recs, st.Record)
		}
	}
	matMS := float64(time.Since(matStart)) / float64(time.Millisecond)
	scanN := 100
	if n > 200000 {
		scanN = 10
	} else if n > 20000 {
		scanN = 30
	}
	scanLat := make([]time.Duration, 0, scanN)
	for _, q := range queries[:scanN] {
		qStart := time.Now()
		if tune.NearestSession(recs, q) < 0 {
			t.Fatal("NearestSession found nothing on a populated corpus")
		}
		scanLat = append(scanLat, time.Since(qStart))
	}

	r := repoSizeBench{
		Sessions:      n,
		BuildS:        buildS,
		OpenMS:        openMS,
		IndexBuildMS:  indexBuildMS,
		IndexedP50us:  pctileUS(lat, 0.50),
		IndexedP99us:  pctileUS(lat, 0.99),
		IndexedCount:  len(lat),
		MaterializeMS: matMS,
		ScanP50us:     pctileUS(scanLat, 0.50),
		ScanP99us:     pctileUS(scanLat, 0.99),
		ScanCount:     len(scanLat),
	}
	t.Logf("n=%d: open %.1f ms, index build %.1f ms, indexed p50/p99 %.1f/%.1f µs, scan p50/p99 %.1f/%.1f µs",
		n, r.OpenMS, r.IndexBuildMS, r.IndexedP50us, r.IndexedP99us, r.ScanP50us, r.ScanP99us)
	return r
}

// memoBenchTarget counts real evaluations so cache hits are observable as
// trials minus calls.
type memoBenchTarget struct {
	space *tune.Space
	calls atomic.Int64
}

func (m *memoBenchTarget) Name() string       { return "memo-bench" }
func (m *memoBenchTarget) Space() *tune.Space { return m.space }
func (m *memoBenchTarget) Run(cfg tune.Config) tune.Result {
	m.calls.Add(1)
	return tune.Result{Time: 1 + cfg.Vector()[0]}
}

// zipfProposer replays a skewed stream over a fixed set of configurations —
// the memo-pressure shape of repeated trials inside one tuning session.
type zipfProposer struct {
	space    *tune.Space
	zipf     *rand.Zipf
	distinct int
}

func (p *zipfProposer) Propose(int) []tune.Config {
	k := int(p.zipf.Uint64())
	return []tune.Config{p.space.FromVector([]float64{float64(k) / float64(p.distinct)})}
}
func (p *zipfProposer) Observe(tune.Trial) {}

// benchMemoCache compares the unbounded memo map against the GDSF cache at
// a tenth of the key space on the same skewed proposal stream.
func benchMemoCache(t *testing.T) memoCacheBench {
	t.Helper()
	const trials, distinct, gdsfCap = 4000, 200, 20
	run := func(o engine.Options) float64 {
		tgt := &memoBenchTarget{space: tune.NewSpace(tune.Float("x", 0, 1, 0.5))}
		zrng := rand.New(rand.NewSource(17))
		p := &zipfProposer{space: tgt.space, distinct: distinct, zipf: rand.NewZipf(zrng, 1.3, 1, distinct-1)}
		if _, err := engine.New(o).Drive(context.Background(), "memo-bench", tgt, tune.Budget{Trials: trials}, p); err != nil {
			t.Fatal(err)
		}
		return float64(trials-int(tgt.calls.Load())) / float64(trials)
	}
	mapRate := run(engine.Options{Workers: 1, Cache: true})
	gdsfRate := run(engine.Options{Workers: 1, CacheCap: gdsfCap})
	b := memoCacheBench{
		Trials:      trials,
		Distinct:    distinct,
		Cap:         gdsfCap,
		MapHitRate:  mapRate,
		GDSFHitRate: gdsfRate,
	}
	if mapRate > 0 {
		b.Recovery = gdsfRate / mapRate
	}
	t.Logf("memo: unbounded map hit rate %.3f, gdsf@%d hit rate %.3f (recovery %.2f)",
		mapRate, gdsfCap, gdsfRate, b.Recovery)
	return b
}
