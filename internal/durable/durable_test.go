package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loam/internal/atomicio"
	"loam/internal/telemetry"
)

// commitDeploy opens a store at dir and commits an initial deploy
// checkpoint carrying data as the version-1 snapshot.
func commitDeploy(t *testing.T, dir string, fs *atomicio.FS, data []byte) *Store {
	t.Helper()
	s, err := Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	name, sum, err := s.PutSnapshot(1, data)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Commit(Manifest{
		Version: 1, Next: 2, Event: EventDeploy,
		Snapshot: name, SnapshotSum: sum,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := commitDeploy(t, dir, nil, []byte("model-one"))

	// Promote: version 2 with rollback insurance on version 1.
	name2, sum2, err := s.PutSnapshot(2, []byte("model-two"))
	if err != nil {
		t.Fatal(err)
	}
	man := *s.Manifest()
	err = s.Commit(Manifest{
		Version: 2, Parent: 1, Next: 3, Event: EventPromote, Probation: 4,
		Snapshot: name2, SnapshotSum: sum2,
		PrevVersion: 1, PrevSnapshot: man.Snapshot, PrevSum: man.SnapshotSum,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Reopen: the manifest and both snapshots survive.
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := s2.Manifest()
	if m == nil || m.Version != 2 || m.Seq != 2 || m.Event != EventPromote || m.Probation != 4 {
		t.Fatalf("manifest after reopen: %+v", m)
	}
	if m.Next != 3 {
		t.Fatalf("next counter lost: %+v", m)
	}
	cur, err := s2.ReadSnapshot(m.Snapshot, m.SnapshotSum)
	if err != nil || string(cur) != "model-two" {
		t.Fatalf("current snapshot: %q err=%v", cur, err)
	}
	prev, err := s2.ReadSnapshot(m.PrevSnapshot, m.PrevSum)
	if err != nil || string(prev) != "model-one" {
		t.Fatalf("rollback snapshot: %q err=%v", prev, err)
	}
}

func TestStoreGCRemovesUnreferenced(t *testing.T) {
	dir := t.TempDir()
	s := commitDeploy(t, dir, nil, []byte("m1"))
	// An orphan from an interrupted checkpoint: durable but never committed.
	if _, _, err := s.PutSnapshot(9, []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, modelsDir, snapshotName(9))); err != nil {
		t.Fatal("orphan should exist before reopen")
	}
	if _, err := Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, modelsDir, snapshotName(9))); !os.IsNotExist(err) {
		t.Fatal("reopen should GC the orphan")
	}
	// The referenced snapshot stays.
	if _, err := os.Stat(filepath.Join(dir, modelsDir, snapshotName(1))); err != nil {
		t.Fatal("referenced snapshot must survive GC")
	}
}

func TestOpenRejectsBitFlippedSnapshot(t *testing.T) {
	dir := t.TempDir()
	commitDeploy(t, dir, nil, []byte("model-bytes"))
	path := filepath.Join(dir, modelsDir, snapshotName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); !errors.Is(err, ErrCorruptStore) {
		t.Fatalf("Open on flipped snapshot: want ErrCorruptStore, got %v", err)
	}
	rep := Fsck(dir)
	if rep.OK() {
		t.Fatal("fsck must flag the flipped snapshot")
	}
}

func TestOpenRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	commitDeploy(t, dir, nil, []byte("m"))
	path := filepath.Join(dir, manifestFile)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0x01
	os.WriteFile(path, data, 0o644)
	if _, err := Open(dir, nil); !errors.Is(err, ErrCorruptStore) {
		t.Fatalf("want ErrCorruptStore, got %v", err)
	}
}

func TestCrashBetweenSnapshotAndCommit(t *testing.T) {
	dir := t.TempDir()
	commitDeploy(t, dir, nil, []byte("m1"))

	// Crash on the manifest swap (second WriteFile): the snapshot for v2 is
	// durable but never referenced.
	hooked := atomicio.NewFS(&nthWriteHook{fireAt: 2, outcome: atomicio.CrashBefore})
	s, err := Open(dir, hooked)
	if err != nil {
		t.Fatal(err)
	}
	name, sum, err := s.PutSnapshot(2, []byte("m2"))
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if _, ok := recover().(*atomicio.Crash); !ok {
				t.Fatal("expected injected crash")
			}
		}()
		s.Commit(Manifest{Version: 2, Parent: 1, Next: 3, Event: EventPromote,
			Snapshot: name, SnapshotSum: sum})
	}()

	// Recovery: the old manifest still rules; the orphan is collected.
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Manifest().Version != 1 {
		t.Fatalf("recovered version = %d, want 1", s2.Manifest().Version)
	}
	if _, err := os.Stat(filepath.Join(dir, modelsDir, snapshotName(2))); !os.IsNotExist(err) {
		t.Fatal("uncommitted snapshot should be GC'd on reopen")
	}
}

// nthWriteHook fires one outcome at the Nth WriteFile.
type nthWriteHook struct {
	fireAt  int
	outcome atomicio.Outcome
	seen    int
}

func (h *nthWriteHook) Decide(op atomicio.Op, path string) atomicio.Decision {
	if op != atomicio.OpWriteFile {
		return atomicio.Decision{}
	}
	h.seen++
	if h.seen == h.fireAt {
		return atomicio.Decision{Outcome: h.outcome, KeepBytes: -1}
	}
	return atomicio.Decision{}
}

func TestStoreTelemetry(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Instrument(reg)
	name, sum, _ := s.PutSnapshot(1, []byte("m"))
	if err := s.Commit(Manifest{Version: 1, Next: 2, Event: EventDeploy, Snapshot: name, SnapshotSum: sum}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("durable.checkpoints").Value(); got != 1 {
		t.Fatalf("durable.checkpoints = %d, want 1", got)
	}
	if got := reg.Gauge("durable.version").Value(); got != 1 {
		t.Fatalf("durable.version = %g, want 1", got)
	}
}

func TestFsckCleanAndRendersDeterministically(t *testing.T) {
	dir := t.TempDir()
	s := commitDeploy(t, dir, nil, []byte("model"))
	j, err := s.Journal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	rep := Fsck(dir)
	if !rep.OK() {
		t.Fatalf("fsck problems: %+v", rep.Problems)
	}
	if rep.JournalRecords != 3 || rep.TornTail {
		t.Fatalf("journal: %+v", rep)
	}
	var a, b bytes.Buffer
	rep.Render(&a)
	Fsck(dir).Render(&b)
	if a.String() != b.String() {
		t.Fatalf("fsck output not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "fsck ok") {
		t.Fatalf("render: %s", a.String())
	}
}
