package store

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tune"
)

// rec builds a distinguishable session record.
func rec(system, workload string, n int) tune.SessionRecord {
	r := tune.SessionRecord{
		System:     system,
		Workload:   workload,
		ParamNames: []string{"a", "b"},
		Features:   map[string]float64{"size": float64(n)},
	}
	for i := 0; i < n; i++ {
		r.Trials = append(r.Trials, tune.TrialRecord{
			Vector:  []float64{float64(i) / 10, 1 - float64(i)/10},
			Time:    float64(100 - i),
			Metrics: map[string]float64{"m": float64(i)},
		})
	}
	return r
}

func open(t *testing.T, dir string) *FileStore {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// sessions materializes the live records, failing the test on read errors.
func sessions(t *testing.T, s *FileStore) []Stored {
	t.Helper()
	got, err := s.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	id1, err := s.Append(rec("dbms", "tpch", 3))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Append(rec("spark", "pagerank", 2))
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatalf("ids collide: %d", id1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything survives, ids are stable, order preserved.
	s2 := open(t, dir)
	got := sessions(t, s2)
	if len(got) != 2 || got[0].ID != id1 || got[1].ID != id2 {
		t.Fatalf("reloaded %+v", got)
	}
	if !reflect.DeepEqual(got[0].Record, rec("dbms", "tpch", 3)) {
		t.Errorf("record 1 mutated: %+v", got[0].Record)
	}
	repo, err := s2.Repository()
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.ForSystem("spark")) != 1 {
		t.Errorf("repository view wrong: %+v", repo)
	}

	// New ids never reuse old ones, even after deletes.
	if err := s2.Delete(id2); err != nil {
		t.Fatal(err)
	}
	id3, err := s2.Append(rec("hadoop", "grep", 1))
	if err != nil {
		t.Fatal(err)
	}
	if id3 <= id2 {
		t.Errorf("id %d reused after delete of %d", id3, id2)
	}
	if _, ok, err := s2.Get(id2); err != nil || ok {
		t.Errorf("deleted record still visible (ok=%v err=%v)", ok, err)
	}
}

func TestStoreDeleteSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	id, _ := s.Append(rec("dbms", "tpch", 2))
	keep, _ := s.Append(rec("dbms", "oltp", 2))
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(id); err == nil {
		t.Error("double delete should error")
	}
	s.Close()
	s2 := open(t, dir)
	got := sessions(t, s2)
	if len(got) != 1 || got[0].ID != keep {
		t.Fatalf("after reopen: %+v", got)
	}
}

// TestFoldFailuresCounted: an automatic tail fold that cannot write its
// segment (here the segment path is taken by a directory) leaves the
// triggering Append successful, and is counted with its error; once the
// path clears, the next fold succeeds and nothing is lost.
func TestFoldFailuresCounted(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.CompactEvery = 2
	blocked := filepath.Join(dir, segName(s.man.Seq))
	if err := os.MkdirAll(filepath.Join(blocked, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Append(rec("dbms", "tpch", i)); err != nil {
			t.Fatalf("append %d with the segment path blocked: %v", i, err)
		}
	}
	n, err := s.FoldFailures()
	if n != 1 || err == nil || !strings.Contains(err.Error(), "segment") {
		t.Fatalf("FoldFailures = (%d, %v), want one segment write failure", n, err)
	}
	if err := os.RemoveAll(blocked); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(rec("dbms", "tpch", 2)); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.FoldFailures(); n != 1 {
		t.Fatalf("FoldFailures = %d after a successful fold, want 1", n)
	}
	if s.walLen != 0 {
		t.Fatalf("WAL holds %d entries after the unblocked fold", s.walLen)
	}
	s.Close()
	if got := sessions(t, open(t, dir)); len(got) != 3 {
		t.Fatalf("after reopen: %d records, want 3", len(got))
	}
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.CompactEvery = 4
	for i := 0; i < 10; i++ {
		if _, err := s.Append(rec("dbms", "tpch", 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Auto-folding must have turned the WAL tail into committed segments.
	man, ok, err := readManifest(filepath.Join(dir, manifestFile))
	if err != nil || !ok {
		t.Fatalf("no manifest after auto-fold: %v", err)
	}
	if len(man.Segments) == 0 {
		t.Fatal("no segments after auto-fold")
	}
	for _, name := range man.Segments {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Fatalf("committed segment %s unreadable: %v", name, err)
		}
	}
	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) >= 10*80 {
		t.Errorf("WAL not truncated by compaction: %d bytes", len(wal))
	}
	s.Close()
	s2 := open(t, dir)
	if s2.Len() != 10 {
		t.Fatalf("lost records across compaction: %d", s2.Len())
	}
	// Explicit compaction with an empty WAL is a no-op that still succeeds.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreClosedRejectsWrites(t *testing.T) {
	s := open(t, t.TempDir())
	s.Close()
	if _, err := s.Append(rec("dbms", "tpch", 1)); err == nil {
		t.Error("append after close should error")
	}
	if err := s.Compact(); err == nil {
		t.Error("compact after close should error")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestStoreCrashSafety truncates the WAL at every byte boundary of the last
// record and asserts load recovers all complete records and drops the torn
// tail — the crash model for a partial write at the end of the log.
func TestStoreCrashSafety(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	ids := make([]int64, 3)
	for i := range ids {
		id, err := s.Append(rec("dbms", "tpch", i+1))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	s.Close()
	walPath := filepath.Join(dir, walFile)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Find where the last record begins: the byte after the second newline.
	lastStart := 0
	for i, nl := 0, 0; i < len(full); i++ {
		if full[i] == '\n' {
			nl++
			if nl == len(ids)-1 {
				lastStart = i + 1
				break
			}
		}
	}
	if lastStart == 0 || lastStart >= len(full) {
		t.Fatalf("could not locate last record (start %d of %d)", lastStart, len(full))
	}

	for cut := lastStart; cut <= len(full); cut++ {
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, walFile), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir2)
		if err != nil {
			t.Fatalf("cut at %d: open failed: %v", cut, err)
		}
		got := sessions(t, s2)
		wantComplete := 2
		if cut == len(full) {
			wantComplete = 3 // nothing torn: the full log survives
		}
		if len(got) != wantComplete {
			t.Fatalf("cut at %d of %d: recovered %d records, want %d",
				cut, len(full), len(got), wantComplete)
		}
		for i, st := range got {
			if st.ID != ids[i] {
				t.Fatalf("cut at %d: record %d has id %d, want %d", cut, i, st.ID, ids[i])
			}
			if !reflect.DeepEqual(st.Record, rec("dbms", "tpch", i+1)) {
				t.Fatalf("cut at %d: record %d corrupted", cut, i)
			}
		}
		// Recovery must leave a clean log: appending works and the torn
		// bytes never resurface on the next load.
		id, err := s2.Append(rec("spark", "pagerank", 1))
		if err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		s2.Close()
		s3, err := Open(dir2)
		if err != nil {
			t.Fatalf("cut at %d: reopen after recovery: %v", cut, err)
		}
		if got := sessions(t, s3); len(got) != wantComplete+1 || got[len(got)-1].ID != id {
			t.Fatalf("cut at %d: post-recovery state wrong: %+v", cut, got)
		}
		s3.Close()
	}
}

// TestStoreConcurrentAppends exercises the mutex under the race detector.
func TestStoreConcurrentAppends(t *testing.T) {
	s := open(t, t.TempDir())
	s.CompactEvery = 8
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 10; i++ {
				if _, err := s.Append(rec("dbms", "tpch", 1)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 40 {
		t.Fatalf("lost appends: %d", s.Len())
	}
	ids := s.IDs()
	seen := map[int64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestSortedBySystem(t *testing.T) {
	in := []Stored{
		{ID: 1, Record: tune.SessionRecord{System: "spark", Workload: "pagerank"}},
		{ID: 2, Record: tune.SessionRecord{System: "dbms", Workload: "tpch"}},
		{ID: 3, Record: tune.SessionRecord{System: "dbms", Workload: "oltp"}},
	}
	out := SortedBySystem(in)
	if out[0].ID != 3 || out[1].ID != 2 || out[2].ID != 1 {
		t.Errorf("order: %+v", out)
	}
	if in[0].ID != 1 {
		t.Error("input mutated")
	}
}

// TestStoreSingleOwner: a second Open on a held directory fails with a
// descriptive error instead of silently sharing the WAL, and the directory
// becomes openable again once the owner closes.
func TestStoreSingleOwner(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	done := make(chan error, 1)
	go func() {
		s2, err := Open(dir)
		if err == nil {
			s2.Close()
		}
		done <- err
	}()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("second Open = %v, want a lock error", err)
	}
	s.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	s3.Close()
}
