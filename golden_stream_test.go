package repro

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"
)

// goldenModelStreamsSHA256 pins the JSON event streams of the model-based
// sessions in TestGoldenModelStreamHash. The GP surrogate's caches must be
// pure speedups: any change to this hash means a refit picked different
// hyperparameters or a factor lost its bits, and so a proposal changed.
const goldenModelStreamsSHA256 = "a25c11a126355178d3c03c90571ad1177e711bbedf2184b1b85236333008d4b8"

// TestGoldenModelStreamHash runs a fixed set of iTuned and OtterTune
// sessions through Spec.Job and the engine and hashes every event stream
// into one SHA-256. The iTuned sessions cover three dbms workloads at
// parallel 1 and 2, plus one that crosses the 60-observation point where
// the exact GP stops searching hyperparameters. The OtterTune sessions map
// onto a small in-memory repository, so workload mapping and the exact
// hyperparameter grid both run, and cross the 80-point optimize threshold.
func TestGoldenModelStreamHash(t *testing.T) {
	eng := NewEngine(EngineOptions{Workers: 2})
	h := sha256.New()
	run := func(spec Spec, repo *Repository, archive func(SessionRecord)) {
		t.Helper()
		job, err := spec.JobWith(repo, archive)
		if err != nil {
			t.Fatal(err)
		}
		r := eng.SubmitContext(context.Background(), job)
		res, err := r.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		if len(res.Trials) != spec.Budget.Trials {
			t.Fatalf("%s: %d trials, want %d", spec.Name(), len(res.Trials), spec.Budget.Trials)
		}
		writeStream(t, h, spec, r.History())
	}

	for _, wl := range []string{"tpch", "oltp", "mixed"} {
		for _, parallel := range []int{1, 2} {
			run(Spec{
				System: "dbms", Workload: wl, Tuner: "ituned",
				Seed: 5, Budget: Budget{Trials: 60}, Parallel: parallel,
			}, nil, nil)
		}
	}
	run(Spec{
		System: "dbms", Workload: "tpch", Tuner: "ituned",
		Seed: 6, Budget: Budget{Trials: 72}, Parallel: 2,
	}, nil, nil)

	repo := &Repository{}
	for i, wl := range []string{"oltp", "tpch"} {
		run(Spec{
			System: "dbms", Workload: wl, Tuner: "random",
			Seed: int64(30 + i), Budget: Budget{Trials: 20},
		}, nil, repo.Add)
	}
	for _, wl := range []string{"mixed", "oltp"} {
		for _, parallel := range []int{1, 2} {
			run(Spec{
				System: "dbms", Workload: wl, Tuner: "ottertune",
				Seed: 9, Budget: Budget{Trials: 70}, Parallel: parallel,
			}, repo, nil)
		}
	}

	got := hex.EncodeToString(h.Sum(nil))
	if got != goldenModelStreamsSHA256 {
		t.Fatalf("model-session event streams hash to %s, want %s", got, goldenModelStreamsSHA256)
	}
}

// writeStream feeds one session's header and its events, one JSON line
// each, into h.
func writeStream(t *testing.T, h hash.Hash, spec Spec, evs []Event) {
	t.Helper()
	fmt.Fprintf(h, "%s seed=%d parallel=%d\n", spec.Name(), spec.Seed, spec.Parallel)
	for _, ev := range evs {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
		h.Write([]byte{'\n'})
	}
}
