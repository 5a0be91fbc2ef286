// Package durable is the crash-safe persistence layer for the serving
// stack's continual-learning state: model checkpoints with lineage and the
// feedback journal the drift detector resumes from. It stores opaque
// snapshot bytes — serialization belongs to the predictor — and guarantees
// exactly one thing: after a crash at ANY write point, Open lands on the last
// committed manifest and every byte that manifest references verifies against
// its recorded checksum.
//
// On-disk layout (all writes go through internal/atomicio):
//
//	<dir>/MANIFEST          one checksummed frame: the JSON Manifest
//	<dir>/models/v%06d.snap predictor snapshots (self-checksummed, v2 framed)
//	<dir>/journal/seg-%06d.log  feedback journal segments (frames)
//
// The write-point ordering that makes the manifest the recovery point:
// snapshot file first (atomic), then MANIFEST (atomic swap), then GC of
// unreferenced snapshots. A crash between any two steps leaves either the
// old manifest with the old snapshot intact (plus a harmless orphan the
// next GC collects) or the new manifest with its snapshot already durable.
// Journal appends are fsynced frames; a crash mid-append leaves a torn tail
// that Open truncates back to the last clean frame — an acknowledged record
// is never lost, a torn one is never half-replayed.
package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"loam/internal/atomicio"
	"loam/internal/telemetry"
)

// Checkpoint event names recorded in the manifest. They mirror the
// lifecycle transitions (DESIGN.md "Model lifecycle contract"): every event
// that changes which model serves, or its rollback insurance, commits one.
const (
	// EventDeploy is the initial checkpoint of a fresh deployment.
	EventDeploy = "deploy"
	// EventPromote commits a candidate that passed shadow evaluation; the
	// manifest keeps the previous snapshot for probation rollback.
	EventPromote = "promote"
	// EventRollback reinstates the previous snapshot after a probation
	// failure; the manifest's current snapshot becomes the old prev.
	EventRollback = "rollback"
	// EventProbationClear drops the rollback insurance once a promoted
	// model survives probation.
	EventProbationClear = "probation-clear"
)

// Manifest is the durable recovery point: which model version serves, its
// lineage, the rollback snapshot (while probation lasts), and the retrain
// counter. The manifest file is one checksummed frame, swapped atomically —
// recovery never sees a partial manifest.
type Manifest struct {
	// Seq increments on every commit; fsck and tests use it to order
	// recovery points.
	Seq uint64 `json:"seq"`
	// Version is the model version the deployment serves.
	Version int `json:"version"`
	// Parent is Version's lineage parent (0 for the initial deploy).
	Parent int `json:"parent"`
	// Next is the lifecycle's next-candidate counter; persisting it keeps
	// retrain seeds (base + version) monotone across restarts.
	Next int `json:"next"`
	// Event is the lifecycle transition that committed this manifest.
	Event string `json:"event"`
	// Snapshot names the serving model file under models/, with its
	// whole-file FNV-64a checksum.
	Snapshot    string `json:"snapshot"`
	SnapshotSum uint64 `json:"snapshotSum"`
	// Probation is the remaining probation budget; a restore with
	// Probation > 0 must re-arm rollback.
	Probation int `json:"probation"`
	// PrevVersion/PrevSnapshot/PrevSum carry the rollback insurance while
	// Probation > 0; empty otherwise.
	PrevVersion  int    `json:"prevVersion,omitempty"`
	PrevSnapshot string `json:"prevSnapshot,omitempty"`
	PrevSum      uint64 `json:"prevSum,omitempty"`
}

// ErrCorruptStore marks a store whose on-disk state fails verification: an
// unreadable manifest, a referenced snapshot that is missing or fails its
// checksum, or a journal segment corrupted before its tail. Open and fsck
// return it; a torn journal tail is NOT corruption (it is the expected
// residue of a crash and is repaired silently).
var ErrCorruptStore = errors.New("durable: corrupt store")

const (
	manifestFile = "MANIFEST"
	modelsDir    = "models"
	journalDir   = "journal"
)

// storeTelemetry holds the durable layer's instruments; nil fields are
// no-ops (telemetry.Counter methods are nil-safe).
type storeTelemetry struct {
	checkpoints      *telemetry.Counter
	restores         *telemetry.Counter
	gcRemoved        *telemetry.Counter
	journalAppends   *telemetry.Counter
	journalReplayed  *telemetry.Counter
	journalTruncated *telemetry.Counter
	journalResets    *telemetry.Counter
	errors           *telemetry.Counter
	version          *telemetry.Gauge
}

// Store is one deployment's durable state rooted at a directory. Methods
// are not safe for concurrent use; the lifecycle serializes them under its
// own mutex.
type Store struct {
	dir string
	fs  *atomicio.FS
	man *Manifest
	tel storeTelemetry
}

// Open roots a store at dir, creating the layout on first use. If a
// manifest exists it is decoded and verified against its snapshot files —
// an inconsistent store fails with ErrCorruptStore rather than serving a
// model that doesn't match its lineage. Orphan snapshots and stray temp
// files from interrupted checkpoints are collected.
func Open(dir string, fs *atomicio.FS) (*Store, error) {
	if fs == nil {
		fs = atomicio.Default
	}
	for _, d := range []string{dir, filepath.Join(dir, modelsDir), filepath.Join(dir, journalDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("durable: mkdir %s: %w", d, err)
		}
	}
	s := &Store{dir: dir, fs: fs}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	s.man = man
	if man != nil {
		if _, err := s.ReadSnapshot(man.Snapshot, man.SnapshotSum); err != nil {
			return nil, fmt.Errorf("serving snapshot: %w", err)
		}
		if man.PrevSnapshot != "" {
			if _, err := s.ReadSnapshot(man.PrevSnapshot, man.PrevSum); err != nil {
				return nil, fmt.Errorf("rollback snapshot: %w", err)
			}
		}
	}
	if err := s.gc(); err != nil {
		return nil, err
	}
	return s, nil
}

// readManifest decodes dir's manifest frame; a missing file returns
// (nil, nil) — a fresh store.
func readManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: read manifest: %w", err)
	}
	payload, rest, err := atomicio.DecodeFrame(data)
	if err != nil || len(rest) != 0 {
		return nil, fmt.Errorf("%w: manifest frame: %v", ErrCorruptStore, err)
	}
	var man Manifest
	if err := json.Unmarshal(payload, &man); err != nil {
		return nil, fmt.Errorf("%w: manifest payload: %v", ErrCorruptStore, err)
	}
	if man.Snapshot == "" {
		return nil, fmt.Errorf("%w: manifest references no snapshot", ErrCorruptStore)
	}
	// A snapshot is a file directly under models/: gc keeps the names the
	// manifest holds, so one spelled as a path ("./v000001.snap") would read
	// and verify, then be collected as unreferenced.
	for _, name := range []string{man.Snapshot, man.PrevSnapshot} {
		if name != "" && (name != filepath.Base(name) || name == "." || name == "..") {
			return nil, fmt.Errorf("%w: manifest names snapshot %q, not a file under %s/", ErrCorruptStore, name, modelsDir)
		}
	}
	return &man, nil
}

// Instrument wires the store's durable.* metrics into reg.
func (s *Store) Instrument(reg *telemetry.Registry) {
	s.tel = storeTelemetry{
		checkpoints:      reg.Counter("durable.checkpoints"),
		restores:         reg.Counter("durable.restores"),
		gcRemoved:        reg.Counter("durable.gc.removed"),
		journalAppends:   reg.Counter("durable.journal.appends"),
		journalReplayed:  reg.Counter("durable.journal.replayed"),
		journalTruncated: reg.Counter("durable.journal.truncated"),
		journalResets:    reg.Counter("durable.journal.resets"),
		errors:           reg.Counter("durable.errors"),
		version:          reg.Gauge("durable.version"),
	}
	if s.man != nil {
		s.tel.version.Set(float64(s.man.Version))
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// NoteRestore records a successful warm restore from this store in the
// durable.restores counter.
func (s *Store) NoteRestore() { s.tel.restores.Inc() }

// Manifest returns the last committed manifest (nil for a fresh store). The
// caller must not mutate it.
func (s *Store) Manifest() *Manifest { return s.man }

// snapshotName returns the models/ filename for a version.
func snapshotName(version int) string {
	return fmt.Sprintf("v%06d.snap", version)
}

// PutSnapshot writes a model snapshot for version and returns the manifest
// reference (relative name + whole-file checksum). The snapshot is durable
// once PutSnapshot returns, but not live until a manifest referencing it
// commits — a crash in between leaves an orphan, not a corrupt store.
func (s *Store) PutSnapshot(version int, data []byte) (name string, sum uint64, err error) {
	name = snapshotName(version)
	if err := s.fs.WriteFile(filepath.Join(s.dir, modelsDir, name), data); err != nil {
		s.tel.errors.Inc()
		return "", 0, fmt.Errorf("durable: snapshot %s: %w", name, err)
	}
	return name, atomicio.Checksum(data), nil
}

// ReadSnapshot returns a snapshot's bytes, verifying the whole-file
// checksum the manifest recorded. A mismatch is ErrCorruptStore.
func (s *Store) ReadSnapshot(name string, sum uint64) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, modelsDir, name))
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot %s: %v", ErrCorruptStore, name, err)
	}
	if got := atomicio.Checksum(data); got != sum {
		return nil, fmt.Errorf("%w: snapshot %s checksum %x, manifest says %x", ErrCorruptStore, name, got, sum)
	}
	return data, nil
}

// Commit atomically swaps the manifest to m (Seq is assigned here), making
// it the recovery point, then collects snapshots the new manifest no longer
// references.
func (s *Store) Commit(m Manifest) error {
	if s.man != nil {
		m.Seq = s.man.Seq + 1
	} else {
		m.Seq = 1
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("durable: marshal manifest: %w", err)
	}
	if err := s.fs.WriteFile(filepath.Join(s.dir, manifestFile), atomicio.EncodeFrame(payload)); err != nil {
		s.tel.errors.Inc()
		return fmt.Errorf("durable: commit manifest: %w", err)
	}
	s.man = &m
	s.tel.checkpoints.Inc()
	s.tel.version.Set(float64(m.Version))
	return s.gc()
}

// gc removes model files the manifest doesn't reference, plus stray temp
// files from interrupted atomic writes. Idempotent across crash/restart.
func (s *Store) gc() error {
	keep := map[string]bool{}
	if s.man != nil {
		keep[s.man.Snapshot] = true
		if s.man.PrevSnapshot != "" {
			keep[s.man.PrevSnapshot] = true
		}
	}
	dir := filepath.Join(s.dir, modelsDir)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("durable: list models: %w", err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		if keep[name] {
			continue
		}
		if err := s.fs.Remove(filepath.Join(dir, name)); err != nil {
			s.tel.errors.Inc()
			return fmt.Errorf("durable: gc: %w", err)
		}
		if !strings.HasSuffix(name, ".tmp") {
			s.tel.gcRemoved.Inc()
		}
	}
	return nil
}
