// Package store persists the tuning repository across daemon restarts: a
// durable, crash-safe Store of tune.SessionRecord entries backed by
// immutable indexed segment files plus a small JSONL write-ahead tail.
//
// Layout inside the store directory:
//
//	MANIFEST       the commit point: segment list, tombstones, id/segment
//	               counters; always installed whole via rename
//	seg-NNNNNN.seg immutable segments: CRC-framed record payloads plus a
//	               binary index block (see segment.go); opening reads only
//	               the index, never the payloads
//	wal.jsonl      the active tail: one JSON entry per line appended since
//	               the last fold — {"op":"add","id":N,"record":{...}} or
//	               {"op":"del","id":N}
//
// Every Append and Delete fsyncs the log before returning, so an
// acknowledged record survives a crash. Loading reads the manifest, each
// committed segment's index, and the tail; a torn tail (a final line
// missing its newline or cut mid-JSON by a crash) is truncated away,
// recovering every complete record. When the tail grows past CompactEvery
// entries it is folded into a new segment and truncated. A v1 directory
// (snapshot.json + wal.jsonl) migrates transparently on open: the snapshot
// becomes the first segment, ids preserved, and the tail carries on.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/tune"
)

// Stored is one archived session with its stable id.
type Stored struct {
	ID     int64              `json:"id"`
	Record tune.SessionRecord `json:"record"`
}

// Summary is the index-resident digest of one archived session: everything
// listings and lookup walks need without reading the record payload.
type Summary struct {
	ID       int64  `json:"id"`
	System   string `json:"system"`
	Workload string `json:"workload"`
	Trials   int    `json:"trials"`
	// BestTime is the best non-failed full-fidelity trial's objective
	// (0 if none), matching the daemon's listing convention.
	BestTime float64 `json:"best_time,omitempty"`
}

// Store is a durable corpus of past tuning sessions. Implementations are
// safe for concurrent use.
type Store interface {
	// Sessions returns the live records in insertion order, reading every
	// payload — an O(corpus) materialization; prefer Summaries for listings.
	Sessions() ([]Stored, error)
	// Summaries returns the live sessions' digests in insertion order from
	// the index alone.
	Summaries() []Summary
	// Len returns the number of live records.
	Len() int
	// Get returns the record with the given id.
	Get(id int64) (Stored, bool, error)
	// Repository materializes the live records into a tune.Repository.
	Repository() (*tune.Repository, error)
	// Append durably archives rec and returns its assigned id.
	Append(rec tune.SessionRecord) (int64, error)
	// Delete durably removes the record with the given id.
	Delete(id int64) error
	// Compact folds the tail and every segment into one fresh segment,
	// dropping tombstones.
	Compact() error
	// WarmConfigs warm-starts from the nearest transferable session of the
	// named system — identical results to tune.WarmConfigs over a
	// materialized Repository, but served by the feature index with lazy
	// record loads. Store implements tune.WarmSource.
	WarmConfigs(system string, features map[string]float64, space *tune.Space, k int) []tune.Config
	// Nearest returns the digest of the session nearest to features among
	// the named system's sessions (ties toward the earlier session).
	Nearest(system string, features map[string]float64) (Summary, bool)
	// SaveCheckpoint durably writes (or replaces) an in-flight session's
	// resume state; see SessionCheckpoint.
	SaveCheckpoint(cp SessionCheckpoint) error
	// Checkpoints returns every persisted session checkpoint in session-id
	// order.
	Checkpoints() ([]SessionCheckpoint, error)
	// DeleteCheckpoint removes a session's checkpoint; removing a missing
	// checkpoint is not an error.
	DeleteCheckpoint(sid string) error
	// Close releases the store's file handles. The store stays loadable.
	Close() error
}

const (
	snapshotFile = "snapshot.json" // v1 layout, migrated on open
	walFile      = "wal.jsonl"
	lockFile     = ".lock"
)

// DefaultCompactEvery is the tail length that triggers an automatic fold
// into a new segment.
const DefaultCompactEvery = 128

// DefaultCompactBytes is the WAL byte size that triggers an automatic fold
// regardless of entry count. Entry counting alone lets a WAL of few huge
// sessions (large trial histories) grow far past any reasonable replay
// budget before folding; the byte trigger bounds reopen cost by data
// volume, not record arithmetic.
const DefaultCompactBytes = 8 << 20

// logEntry is one WAL line.
type logEntry struct {
	Op     string              `json:"op"` // "add" or "del"
	ID     int64               `json:"id"`
	Record *tune.SessionRecord `json:"record,omitempty"`
}

// v1Snapshot is the legacy compacted state, read only during migration.
type v1Snapshot struct {
	NextID   int64    `json:"next_id"`
	Sessions []Stored `json:"sessions"`
}

// recRef locates one live record: a (segment, entry) pair, or a tail id
// when seg is negative.
type recRef struct {
	seg int32 // -1 = tail
	ent int32
	id  int64
}

// FileStore is the file-backed Store.
type FileStore struct {
	dir string

	// CompactEvery is the number of WAL entries that triggers an automatic
	// tail fold on the next mutation (default DefaultCompactEvery; set it
	// right after Open, before concurrent use).
	CompactEvery int

	// CompactBytes is the WAL byte size that triggers an automatic tail
	// fold on the next mutation, independent of CompactEvery (default
	// DefaultCompactBytes; 0 disables the size trigger; set it right after
	// Open, before concurrent use). Either trigger firing folds the tail.
	CompactBytes int64

	// mu guards all mutable state. Writers (Append, Delete, folds) take it
	// exclusively; materializing readers (Sessions, Get, Summaries) share
	// it — segment payload reads go through ReadAt on immutable files, so
	// concurrent readers never contend on file position. Lookup methods
	// (WarmConfigs, Nearest, RankIDs) also share it on their fast path:
	// when the lazy feature index is built and fresh (CorpusIndex.Ready) a
	// walk is read-only, so concurrent lookups serve in parallel; only when
	// the index must be (re)built does a lookup upgrade to the write lock
	// (see lookupWalk).
	mu        sync.RWMutex
	wal       *os.File
	lock      *os.File // held flock guarding the directory against other processes
	closed    bool
	man       manifest
	segs      []*segment
	tailOrder []int64
	tailRecs  map[int64]tune.SessionRecord
	dead      map[int64]bool // tombstoned segment-resident ids
	walLen    int            // entries in the WAL since the last fold
	walBytes  int64          // bytes in the WAL since the last fold
	nextID    int64

	// Automatic tail folds that failed, and the latest failure's error.
	// The triggering mutation succeeds regardless; these make the failure
	// visible instead of leaving an ever-growing WAL unexplained.
	foldFailures int
	foldErr      error

	// Lazy feature-space index over the live corpus; refs maps its walk
	// positions back to records. Invalidated by deletes, preserved (with
	// refs rebuilt) across folds, which keep the live order.
	corpus   *tune.CorpusIndex
	refs     []recRef
	corpusOK bool
}

func (s *FileStore) path(name string) string { return filepath.Join(s.dir, name) }

// Open loads (or initializes) the store rooted at dir, recovering from any
// torn WAL tail left by a crash and migrating a v1 snapshot directory to
// the segment layout.
func Open(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &FileStore{
		dir:          dir,
		CompactEvery: DefaultCompactEvery,
		CompactBytes: DefaultCompactBytes,
		nextID:       1,
		tailRecs:     map[int64]tune.SessionRecord{},
		dead:         map[int64]bool{},
	}
	// One process owns a store directory at a time: two daemons appending
	// to the same WAL would hand out duplicate ids and each fold would
	// discard the other's appends. The lock is advisory and released by the
	// kernel on process exit, so a crashed owner never wedges the
	// directory.
	lock, err := acquireDirLock(s.path(lockFile))
	if err != nil {
		return nil, err
	}
	s.lock = lock
	fail := func(err error) (*FileStore, error) {
		for _, sg := range s.segs {
			sg.close()
		}
		releaseDirLock(lock)
		return nil, err
	}
	man, haveMan, err := readManifest(s.path(manifestFile))
	if err != nil {
		return fail(err)
	}
	if !haveMan {
		man, err = s.migrateV1()
		if err != nil {
			return fail(err)
		}
	} else {
		// A crash between manifest install and snapshot removal during
		// migration leaves a stale v1 snapshot behind; the manifest wins.
		_ = os.Remove(s.path(snapshotFile))
	}
	s.man = man
	if s.man.NextID > s.nextID {
		s.nextID = s.man.NextID
	}
	for _, id := range s.man.Deleted {
		s.dead[id] = true
	}
	for _, name := range s.man.Segments {
		sg, err := openSegment(s.path(name))
		if err != nil {
			return fail(err)
		}
		for i := range sg.entries {
			if id := sg.entries[i].id; id >= s.nextID {
				s.nextID = id + 1
			}
		}
		s.segs = append(s.segs, sg)
	}
	if err := s.replayWAL(); err != nil {
		return fail(err)
	}
	wal, err := os.OpenFile(s.path(walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(fmt.Errorf("store: opening WAL: %w", err))
	}
	s.wal = wal
	// A WAL past the fold threshold (e.g. the previous owner's folds kept
	// failing) is folded now rather than re-replayed on every future open;
	// best-effort like any auto-fold.
	s.maybeCompactLocked()
	return s, nil
}

// migrateV1 converts a legacy snapshot.json directory into the segment
// layout: the snapshot's sessions become the first segment (ids preserved)
// and the WAL carries on as the tail. Called only when no manifest exists;
// returns the fresh manifest. Crash-safe: until the manifest rename lands,
// reopening still sees a v1 directory and redoes the migration.
func (s *FileStore) migrateV1() (manifest, error) {
	man := manifest{Version: 2, NextID: 1}
	data, err := os.ReadFile(s.path(snapshotFile))
	if os.IsNotExist(err) {
		// Fresh directory (or v1 with an empty snapshot): nothing to fold.
		if err := writeManifest(s.path(manifestFile), man); err != nil {
			return man, err
		}
		s.syncDir()
		return man, nil
	}
	if err != nil {
		return man, fmt.Errorf("store: reading snapshot: %w", err)
	}
	var snap v1Snapshot
	// The v1 snapshot was written atomically (rename), so a decode failure
	// is corruption worth surfacing, not a crash artifact to skip.
	if err := json.Unmarshal(data, &snap); err != nil {
		return man, fmt.Errorf("store: snapshot %s is corrupt: %w", s.path(snapshotFile), err)
	}
	if snap.NextID > man.NextID {
		man.NextID = snap.NextID
	}
	if len(snap.Sessions) > 0 {
		name := segName(man.Seq)
		man.Seq++
		if _, err := writeSegment(s.path(name), snap.Sessions); err != nil {
			return man, err
		}
		man.Segments = append(man.Segments, name)
	}
	if err := writeManifest(s.path(manifestFile), man); err != nil {
		return man, err
	}
	s.syncDir()
	_ = os.Remove(s.path(snapshotFile))
	return man, nil
}

// findSeg locates a live-or-dead segment-resident id.
func (s *FileStore) findSeg(id int64) (segIdx, entIdx int, ok bool) {
	for si, sg := range s.segs {
		if !sg.sorted {
			for ei := range sg.entries {
				if sg.entries[ei].id == id {
					return si, ei, true
				}
			}
			continue
		}
		lo, hi := 0, len(sg.entries)
		for lo < hi {
			mid := (lo + hi) / 2
			if sg.entries[mid].id < id {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(sg.entries) && sg.entries[lo].id == id {
			return si, lo, true
		}
	}
	return 0, 0, false
}

// replayWAL applies every complete log entry and truncates a torn tail.
func (s *FileStore) replayWAL() error {
	data, err := os.ReadFile(s.path(walFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading WAL: %w", err)
	}
	good := 0 // byte offset past the last complete, decodable entry
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn: final line has no newline
		}
		line := data[off : off+nl]
		var e logEntry
		if err := json.Unmarshal(line, &e); err != nil {
			break // torn: crash cut the line mid-JSON before the newline
		}
		s.apply(e)
		s.walLen++
		off += nl + 1
		good = off
	}
	if good < len(data) {
		if err := os.Truncate(s.path(walFile), int64(good)); err != nil {
			return fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	s.walBytes = int64(good)
	return nil
}

// apply mutates the in-memory state by one log entry.
func (s *FileStore) apply(e logEntry) {
	switch e.Op {
	case "add":
		if e.Record == nil {
			return
		}
		if e.ID >= s.nextID {
			s.nextID = e.ID + 1
		}
		// A crash between a fold's manifest install and its WAL truncation
		// replays entries already folded into a segment: skip them.
		if _, _, folded := s.findSeg(e.ID); folded {
			return
		}
		if _, dup := s.tailRecs[e.ID]; !dup {
			s.tailOrder = append(s.tailOrder, e.ID)
		}
		s.tailRecs[e.ID] = *e.Record
	case "del":
		if _, ok := s.tailRecs[e.ID]; ok {
			delete(s.tailRecs, e.ID)
			for i, id := range s.tailOrder {
				if id == e.ID {
					s.tailOrder = append(s.tailOrder[:i], s.tailOrder[i+1:]...)
					break
				}
			}
			return
		}
		if _, _, ok := s.findSeg(e.ID); ok {
			s.dead[e.ID] = true
		}
	}
}

// appendEntry writes one WAL line and fsyncs it.
func (s *FileStore) appendEntry(e logEntry) error {
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: encoding log entry: %w", err)
	}
	line = append(line, '\n')
	if _, err := s.wal.Write(line); err != nil {
		return fmt.Errorf("store: appending to WAL: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: fsyncing WAL: %w", err)
	}
	s.walLen++
	s.walBytes += int64(len(line))
	return nil
}

// Append implements Store.
func (s *FileStore) Append(rec tune.SessionRecord) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	if err := s.appendEntry(logEntry{Op: "add", ID: id, Record: &rec}); err != nil {
		return 0, err
	}
	s.nextID++
	s.tailOrder = append(s.tailOrder, id)
	s.tailRecs[id] = rec
	if s.corpusOK {
		// Appends extend the live order, so the lazy index stays valid.
		s.corpus.AddKV(rec.System, sortedFeats(rec.Features), len(s.refs))
		s.refs = append(s.refs, recRef{seg: -1, id: id})
	}
	s.maybeCompactLocked()
	return id, nil
}

// BulkAppend archives a batch of records as one committed segment, skipping
// the per-record WAL fsync — the ingest path for imports and for building
// large corpora. Records receive consecutive ids starting at the returned
// value; the batch is durable as a unit (segment written and fsynced, then
// the manifest installed) before BulkAppend returns.
func (s *FileStore) BulkAppend(recs []tune.SessionRecord) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: %s is closed", s.dir)
	}
	if len(recs) == 0 {
		return s.nextID, nil
	}
	// Fold any WAL tail first so the live order stays the append order once
	// the new segment lands after the existing ones.
	if err := s.foldTailLocked(); err != nil {
		return 0, err
	}
	first := s.nextID
	stored := make([]Stored, len(recs))
	for i := range recs {
		stored[i] = Stored{ID: first + int64(i), Record: recs[i]}
	}
	man := s.man
	man.NextID = first + int64(len(recs))
	name := segName(man.Seq)
	man.Seq++
	entries, err := writeSegment(s.path(name), stored)
	if err != nil {
		return 0, err
	}
	man.Segments = append(append([]string(nil), s.man.Segments...), name)
	s.syncDir()
	if err := writeManifest(s.path(manifestFile), man); err != nil {
		return 0, err
	}
	s.syncDir()
	f, err := os.Open(s.path(name))
	if err != nil {
		return 0, fmt.Errorf("store: reopening bulk segment: %w", err)
	}
	s.segs = append(s.segs, &segment{path: s.path(name), f: f, entries: entries, sorted: entriesSorted(entries)})
	s.man = man
	s.nextID = man.NextID
	if s.corpusOK {
		// Bulk appends extend the live order just like Append does, so the
		// lazy index absorbs them incrementally.
		si := int32(len(s.segs) - 1)
		for i := range entries {
			s.corpus.AddKV(entries[i].system, entries[i].feats, len(s.refs))
			s.refs = append(s.refs, recRef{seg: si, ent: int32(i), id: entries[i].id})
		}
	}
	return first, nil
}

// Delete implements Store.
func (s *FileStore) Delete(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := false
	if _, ok := s.tailRecs[id]; ok {
		live = true
	} else if _, _, ok := s.findSeg(id); ok && !s.dead[id] {
		live = true
	}
	if !live {
		return fmt.Errorf("store: no session %d", id)
	}
	if err := s.appendEntry(logEntry{Op: "del", ID: id}); err != nil {
		return err
	}
	s.apply(logEntry{Op: "del", ID: id})
	// A delete removes a position from the live order; the index re-syncs
	// on the next lookup.
	s.invalidateCorpusLocked()
	s.maybeCompactLocked()
	return nil
}

func (s *FileStore) invalidateCorpusLocked() {
	s.corpusOK = false
	s.corpus = nil
	s.refs = nil
}

// iterLiveLocked visits every live record reference in insertion order.
func (s *FileStore) iterLiveLocked(visit func(ref recRef) bool) {
	for si, sg := range s.segs {
		for ei := range sg.entries {
			id := sg.entries[ei].id
			if s.dead[id] {
				continue
			}
			if !visit(recRef{seg: int32(si), ent: int32(ei), id: id}) {
				return
			}
		}
	}
	for _, id := range s.tailOrder {
		if !visit(recRef{seg: -1, id: id}) {
			return
		}
	}
}

// readRefLocked loads the record behind a reference.
func (s *FileStore) readRefLocked(ref recRef) (tune.SessionRecord, error) {
	if ref.seg < 0 {
		return s.tailRecs[ref.id], nil
	}
	return s.segs[ref.seg].readRecord(&s.segs[ref.seg].entries[ref.ent])
}

// Get implements Store.
func (s *FileStore) Get(id int64) (Stored, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if rec, ok := s.tailRecs[id]; ok {
		return Stored{ID: id, Record: rec}, true, nil
	}
	si, ei, ok := s.findSeg(id)
	if !ok || s.dead[id] {
		return Stored{}, false, nil
	}
	rec, err := s.segs[si].readRecord(&s.segs[si].entries[ei])
	if err != nil {
		return Stored{}, false, err
	}
	return Stored{ID: id, Record: rec}, true, nil
}

// Sessions implements Store.
func (s *FileStore) Sessions() ([]Stored, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Stored
	var err error
	s.iterLiveLocked(func(ref recRef) bool {
		var rec tune.SessionRecord
		if rec, err = s.readRefLocked(ref); err != nil {
			return false
		}
		out = append(out, Stored{ID: ref.id, Record: rec})
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Summaries implements Store.
func (s *FileStore) Summaries() []Summary {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Summary, 0, s.lenLocked())
	s.iterLiveLocked(func(ref recRef) bool {
		out = append(out, s.summaryLocked(ref))
		return true
	})
	return out
}

func (s *FileStore) summaryLocked(ref recRef) Summary {
	if ref.seg < 0 {
		rec := s.tailRecs[ref.id]
		sum := Summary{ID: ref.id, System: rec.System, Workload: rec.Workload, Trials: len(rec.Trials)}
		if at := rec.BestTrial(); at >= 0 {
			sum.BestTime = rec.Trials[at].Time
		}
		return sum
	}
	e := &s.segs[ref.seg].entries[ref.ent]
	sum := Summary{ID: e.id, System: e.system, Workload: e.workload, Trials: int(e.ntrials)}
	if !math.IsNaN(e.best) {
		sum.BestTime = e.best
	}
	return sum
}

// Repository implements Store.
func (s *FileStore) Repository() (*tune.Repository, error) {
	sessions, err := s.Sessions()
	if err != nil {
		return nil, err
	}
	repo := &tune.Repository{}
	for _, st := range sessions {
		repo.Add(st.Record)
	}
	return repo, nil
}

func (s *FileStore) lenLocked() int {
	n := len(s.tailOrder)
	for _, sg := range s.segs {
		n += len(sg.entries)
	}
	return n - len(s.dead)
}

// Len implements Store.
func (s *FileStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lenLocked()
}

// ensureCorpusLocked (re)builds the lazy feature index over the live order.
func (s *FileStore) ensureCorpusLocked() {
	if s.corpusOK {
		return
	}
	s.corpus = tune.NewCorpusIndex()
	s.refs = s.refs[:0]
	s.iterLiveLocked(func(ref recRef) bool {
		var system string
		var feats []tune.KV
		if ref.seg < 0 {
			rec := s.tailRecs[ref.id]
			system, feats = rec.System, sortedFeats(rec.Features)
		} else {
			e := &s.segs[ref.seg].entries[ref.ent]
			system, feats = e.system, e.feats
		}
		s.corpus.AddKV(system, feats, len(s.refs))
		s.refs = append(s.refs, ref)
		return true
	})
	s.corpusOK = true
}

// nparamsLocked returns a live record's parameter arity without reading the
// payload when the index already carries it.
func (s *FileStore) nparamsLocked(ref recRef) int {
	if ref.seg < 0 {
		return len(s.tailRecs[ref.id].ParamNames)
	}
	return int(s.segs[ref.seg].entries[ref.ent].nparams)
}

// lookupWalk runs one indexed nearest-first walk with reader concurrency.
// Fast path: when the lazy index exists and a walk for system would not
// rebuild it (CorpusIndex.Ready), the whole lookup — walk and payload reads
// — serves under the shared lock, so concurrent lookups during archival run
// in parallel instead of serializing on an exclusive lock they almost never
// needed. Slow path: take the write lock, (re)build under it (double-checked
// — another lookup may have rebuilt while this one waited), and serve there.
// Whichever lock is held, it is held across visit, so closures may touch
// refs, segment entries, and tail records freely.
func (s *FileStore) lookupWalk(system string, features map[string]float64, visit func(pos, ord int) bool) {
	s.mu.RLock()
	if s.corpusOK && s.corpus.Ready(system) {
		defer s.mu.RUnlock()
		s.corpus.Walk(system, features, visit)
		return
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureCorpusLocked()
	s.corpus.Rebuild(system)
	s.corpus.Walk(system, features, visit)
}

// WarmConfigs implements Store (and tune.WarmSource): identical results to
// tune.WarmConfigs over the materialized repository, but the feature index
// walks candidates nearest-first and only transferable ones load their
// payloads. Unreadable payloads are skipped — a warm start degrades to a
// cold start, never to an error.
func (s *FileStore) WarmConfigs(system string, features map[string]float64, space *tune.Space, k int) []tune.Config {
	names := space.Names()
	var out []tune.Config
	s.lookupWalk(system, features, func(pos, _ int) bool {
		ref := s.refs[pos]
		if s.nparamsLocked(ref) != len(names) {
			return true
		}
		rec, err := s.readRefLocked(ref)
		if err != nil {
			return true
		}
		if cfgs := tune.TransferConfigs(rec, space, k); len(cfgs) > 0 {
			out = cfgs
			return false
		}
		return true
	})
	return out
}

// Nearest implements Store.
func (s *FileStore) Nearest(system string, features map[string]float64) (Summary, bool) {
	var sum Summary
	found := false
	s.lookupWalk(system, features, func(pos, _ int) bool {
		sum, found = s.summaryLocked(s.refs[pos]), true
		return false
	})
	return sum, found
}

// RankIDs returns up to limit live session ids of the named system in
// nearest-first order (every one of them when limit <= 0) — the indexed
// equivalent of tune.RankSessions over the materialized corpus.
func (s *FileStore) RankIDs(system string, features map[string]float64, limit int) []int64 {
	var out []int64
	s.lookupWalk(system, features, func(pos, _ int) bool {
		out = append(out, s.refs[pos].id)
		return limit <= 0 || len(out) < limit
	})
	return out
}

// maybeCompactLocked folds the tail when the WAL has grown past
// CompactEvery entries or CompactBytes bytes — whichever fires first. Fold
// failure is not an error for the triggering mutation — the mutation itself
// is already durable in the log; the oversized WAL will be retried on the
// next mutation and folded at the latest on reopen. The failure is counted
// and its error kept for FoldFailures.
func (s *FileStore) maybeCompactLocked() {
	byCount := s.CompactEvery > 0 && s.walLen >= s.CompactEvery
	bySize := s.CompactBytes > 0 && s.walBytes >= s.CompactBytes
	if byCount || bySize {
		if err := s.foldTailLocked(); err != nil {
			s.foldFailures++
			s.foldErr = err
		}
	}
}

// FoldFailures reports how many automatic tail folds have failed since Open
// and the latest failure's error (nil when none has).
func (s *FileStore) FoldFailures() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.foldFailures, s.foldErr
}

// foldTailLocked turns the WAL tail into a new committed segment: segment
// rename, then manifest rename (the commit point), then WAL truncation.
// A crash between any two steps loses nothing — an orphan segment is
// ignored, and already-folded WAL entries deduplicate on replay.
func (s *FileStore) foldTailLocked() error {
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	if len(s.tailOrder) == 0 && len(s.man.Deleted) == len(s.dead) && s.walLen == 0 {
		return nil
	}
	man := s.man
	man.NextID = s.nextID
	man.Deleted = deadList(s.dead)
	var entries []segEntry
	if len(s.tailOrder) > 0 {
		recs := make([]Stored, 0, len(s.tailOrder))
		for _, id := range s.tailOrder {
			recs = append(recs, Stored{ID: id, Record: s.tailRecs[id]})
		}
		name := segName(man.Seq)
		man.Seq++
		var err error
		if entries, err = writeSegment(s.path(name), recs); err != nil {
			return err
		}
		man.Segments = append(append([]string(nil), s.man.Segments...), name)
		s.syncDir()
		if err := writeManifest(s.path(manifestFile), man); err != nil {
			return err
		}
		f, err := os.Open(s.path(name))
		if err != nil {
			return fmt.Errorf("store: reopening folded segment: %w", err)
		}
		s.segs = append(s.segs, &segment{path: s.path(name), f: f, entries: entries, sorted: entriesSorted(entries)})
		s.tailOrder = nil
		s.tailRecs = map[int64]tune.SessionRecord{}
	} else if err := writeManifest(s.path(manifestFile), man); err != nil {
		return err
	}
	s.syncDir()
	s.man = man
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating WAL after fold: %w", err)
	}
	// O_APPEND writes continue at the (now zero) end of file; reset our
	// entry and byte counts so auto-folding re-arms.
	s.walLen = 0
	s.walBytes = 0
	// The fold preserved the live order, so a valid index stays valid —
	// only its record references moved from the tail into the new segment.
	if s.corpusOK {
		s.rebuildRefsLocked()
	}
	return nil
}

// rebuildRefsLocked re-derives refs after a fold. The live order is
// unchanged, so positions (and the corpus index built over them) survive.
func (s *FileStore) rebuildRefsLocked() {
	s.refs = s.refs[:0]
	s.iterLiveLocked(func(ref recRef) bool {
		s.refs = append(s.refs, ref)
		return true
	})
}

func deadList(dead map[int64]bool) []int64 {
	if len(dead) == 0 {
		return nil
	}
	out := make([]int64, 0, len(dead))
	for id := range dead {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Compact implements Store: a full rewrite of every live record into one
// fresh segment, dropping tombstones and old segment files.
func (s *FileStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	var recs []Stored
	var err error
	s.iterLiveLocked(func(ref recRef) bool {
		var rec tune.SessionRecord
		if rec, err = s.readRefLocked(ref); err != nil {
			return false
		}
		recs = append(recs, Stored{ID: ref.id, Record: rec})
		return true
	})
	if err != nil {
		return err
	}
	man := manifest{Version: 2, NextID: s.nextID, Seq: s.man.Seq}
	var segs []*segment
	if len(recs) > 0 {
		name := segName(man.Seq)
		man.Seq++
		entries, werr := writeSegment(s.path(name), recs)
		if werr != nil {
			return werr
		}
		s.syncDir()
		f, oerr := os.Open(s.path(name))
		if oerr != nil {
			return fmt.Errorf("store: reopening compacted segment: %w", oerr)
		}
		man.Segments = []string{name}
		segs = []*segment{{path: s.path(name), f: f, entries: entries, sorted: entriesSorted(entries)}}
	}
	if err := writeManifest(s.path(manifestFile), man); err != nil {
		for _, sg := range segs {
			sg.close()
		}
		return err
	}
	s.syncDir()
	old := s.segs
	s.segs = segs
	s.man = man
	s.tailOrder = nil
	s.tailRecs = map[int64]tune.SessionRecord{}
	s.dead = map[int64]bool{}
	for _, sg := range old {
		sg.close()
		_ = os.Remove(sg.path)
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating WAL after compaction: %w", err)
	}
	s.walLen = 0
	s.walBytes = 0
	if s.corpusOK {
		s.rebuildRefsLocked()
	}
	return nil
}

// syncDir fsyncs the store directory so renames are durable; best-effort
// because not every platform supports directory fsync.
func (s *FileStore) syncDir() {
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.wal.Close()
	for _, sg := range s.segs {
		sg.close()
	}
	releaseDirLock(s.lock)
	return err
}

// IDs returns the live ids in insertion order (primarily for tests).
func (s *FileStore) IDs() []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []int64
	s.iterLiveLocked(func(ref recRef) bool {
		out = append(out, ref.id)
		return true
	})
	return out
}

var _ Store = (*FileStore)(nil)
var _ tune.WarmSource = (*FileStore)(nil)

// SortedBySystem returns stored sessions grouped by system then workload —
// a stable presentation order for listings (insertion order preserved
// within a group).
func SortedBySystem(sessions []Stored) []Stored {
	out := append([]Stored(nil), sessions...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Record, out[j].Record
		if a.System != b.System {
			return a.System < b.System
		}
		return a.Workload < b.Workload
	})
	return out
}
