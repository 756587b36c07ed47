package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	repro "repro"
	"repro/internal/tune"
	"repro/internal/tune/store"
)

// TestCheckpointFailuresReported blocks the checkpoint directory with a
// regular file, so every -resume checkpoint write fails, then unblocks and
// blocks it again. Each failing streak must be reported once, with its
// trial count, and the summary must name the last trial that landed.
func TestCheckpointFailuresReported(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ckptDir := filepath.Join(dir, "checkpoints")
	block := func() {
		t.Helper()
		if err := os.RemoveAll(ckptDir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckptDir, []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unblock := func() {
		t.Helper()
		if err := os.Remove(ckptDir); err != nil {
			t.Fatal(err)
		}
	}

	target, err := repro.NewTarget("dbms", "tpch", 1, repro.TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var trials []tune.Trial
	observe := func(n int) tune.CheckpointState {
		for len(trials) < n {
			cfg := target.Space().Default()
			trials = append(trials, tune.Trial{Config: cfg, Result: target.Run(cfg)})
		}
		return tune.CheckpointState{Trials: trials}
	}

	var warn bytes.Buffer
	c := &checkpointer{st: st, sid: "cli-test", meta: []byte(`{}`), warn: &warn}
	block()
	c.save(observe(4))
	c.save(observe(8))
	unblock()
	c.save(observe(12))
	block()
	c.save(observe(16))
	c.save(observe(20))

	lines := strings.Split(strings.TrimSpace(warn.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want one report per failing streak (2), got %d:\n%s", len(lines), warn.String())
	}
	for i, want := range []string{"checkpoint at trial 4 failed, resumable only from trial 0", "checkpoint at trial 16 failed, resumable only from trial 12"} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("report %d = %q, want it to contain %q", i, lines[i], want)
		}
	}
	if got, want := c.summary(), "checkpoint: durable through trial 12; 4 checkpoint writes failed"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}

	unblock()
	cps, err := st.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 0 {
		t.Fatalf("%d checkpoints survive after the directory was replaced, want 0", len(cps))
	}
	c.save(observe(24))
	if cps, err = st.Checkpoints(); err != nil || len(cps) != 1 || cps[0].Trials != 24 {
		t.Fatalf("checkpoints after recovery: %+v, %v; want one at trial 24", cps, err)
	}
	if got, want := c.summary(), "checkpoint: durable through trial 24; 4 checkpoint writes failed"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}
