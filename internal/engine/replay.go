package engine

import (
	"fmt"

	"repro/internal/tune"
)

// This file is the crash-resume mechanics: serving a checkpointed
// observation history to the drive loop, and offering batch-boundary
// checkpoints to the configured sink. See internal/tune/checkpoint.go for
// why resume-by-observation-replay is exact.
//
// Replay is not a loop of its own. The fresh proposer runs on the same
// drive loop as a live session, and for the checkpointed prefix the
// evaluator serves the recorded results instead of evaluating, after
// verifying each proposed candidate against the recording. Observe-only
// replay would not work: proposers mutate state on Propose as well as on
// Observe (a fixed-schedule proposer pops its pending queue, a model-based
// one advances its design phase), so skipping the proposals would leave the
// resumed proposer out of sync with the one that produced the checkpoint.
// Served results pass through the memo exactly as evaluated ones do, so the
// memo a resumed session continues with is the one the uninterrupted
// session had.

// replayBatch checks that the fresh proposer's batch matches the next
// recorded trials bitwise (configuration and fidelity) and returns them.
// Once the whole recording is served it restores the target's run counter:
// served trials consume no runs, and the first live evaluation must draw
// the noise index it drew in the uninterrupted run.
func (ev *evaluator) replayBatch(cands []tune.Candidate) ([]tune.ReplayTrial, error) {
	all, at := ev.replay.Trials, ev.replayed
	if len(cands) > len(all)-at {
		return nil, replayErr(at, len(all), "checkpoint ends mid-batch (checkpoints are only written at batch boundaries — is this a checkpoint from a different spec?)")
	}
	for k, c := range cands {
		rt := all[at+k]
		if !vectorsEqual(c.Config.Vector(), rt.Vector) || normFidelity(c.Fidelity) != normFidelity(rt.Result.Fidelity) {
			return nil, replayErr(at+k, len(all), "fresh proposer diverged from the checkpointed history (spec, seed, or warm-start corpus changed since the checkpoint)")
		}
	}
	ev.replayed += len(cands)
	if ev.replayed == len(all) {
		if d := ev.replay.RunsReserved - reservedRuns(ev.ct); d > 0 {
			ev.ct.ReserveRuns(d)
		}
		ev.replay = nil
	}
	return all[at:ev.replayed], nil
}

// reservedRuns reads the run counter without reserving anything:
// ReserveRuns(n) returns the first index of the reserved block (1-based),
// so a zero-width block starts one past the last reserved index.
func reservedRuns(ct tune.ConcurrentTarget) int64 {
	return ct.ReserveRuns(0) - 1
}

// offerCheckpoint hands the session's resumable state to the sink if at
// least `every` new trials were observed since the last snapshot (minimum
// one — empty checkpoints are never offered). Returns the new high-water
// trial count. Called only at the drive loop's batch boundary; see
// tune.CheckpointState for the aliasing contract.
func offerCheckpoint(sink func(tune.CheckpointState), s *tune.Session, ct tune.ConcurrentTarget, last, every int) int {
	trials := s.Trials()
	if every < 1 {
		every = 1
	}
	if len(trials)-last < every {
		return last
	}
	sink(tune.CheckpointState{Trials: trials, RunsReserved: reservedRuns(ct)})
	return len(trials)
}

// normFidelity maps any full-fidelity encoding (≤0 or ≥1) to 0, matching the
// session's partial-fidelity normalization.
func normFidelity(f float64) float64 {
	if f <= 0 || f >= 1 {
		return 0
	}
	return f
}

// vectorsEqual compares unit-cube coordinates bitwise: a deterministic
// proposer reproduces its history exactly, so any difference is divergence,
// not rounding.
func vectorsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replayErr formats a resume failure at 1-based trial position i+1 of n.
func replayErr(i, n int, msg string) error {
	return fmt.Errorf("engine: replay trial %d/%d: %s", i+1, n, msg)
}
