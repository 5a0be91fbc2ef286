package durable

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"loam/internal/atomicio"
)

// FuzzOpenManifest opens a store whose MANIFEST holds arbitrary bytes, beside
// a real version-1 snapshot. Open never panics. What is not one clean frame
// of a JSON manifest naming, as a file under models/, a snapshot that matches
// its checksum — a bad frame or checksum, bad JSON, an empty or path-shaped
// snapshot name, a missing or mismatched snapshot — is refused with
// ErrCorruptStore; and a manifest Open accepts still reads its snapshot after
// Open's own GC.
func FuzzOpenManifest(f *testing.F) {
	snap := []byte("model-bytes")
	frame := func(v any) []byte {
		payload, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return atomicio.EncodeFrame(payload)
	}
	good := Manifest{Seq: 1, Version: 1, Next: 2, Event: EventDeploy, Snapshot: snapshotName(1), SnapshotSum: atomicio.Checksum(snap)}
	clean := frame(good)
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)-2] ^= 0x20
	f.Add(clean)
	f.Add([]byte{})
	f.Add(clean[:len(clean)-1])
	f.Add(append(append([]byte(nil), clean...), 0))
	f.Add(flipped)
	f.Add(atomicio.EncodeFrame([]byte(`{"seq":1,"snapshot":`)))
	f.Add(frame([]int{1}))
	f.Add(frame(Manifest{Version: 1}))
	for _, name := range []string{"./" + snapshotName(1), "../" + modelsDir + "/" + snapshotName(1), ".", ".."} {
		m := good
		m.Snapshot = name
		f.Add(frame(m))
	}
	wrongSum := good
	wrongSum.SnapshotSum++
	f.Add(frame(wrongSum))
	rollback := good
	rollback.PrevSnapshot, rollback.PrevSum = snapshotName(0), 1
	f.Add(frame(rollback))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, modelsDir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, modelsDir, snapshotName(1)), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, nil)
		if err != nil {
			if !errors.Is(err, ErrCorruptStore) {
				t.Fatalf("Open refused the manifest without ErrCorruptStore: %v", err)
			}
			return
		}
		m := s.Manifest()
		if m == nil || m.Snapshot == "" {
			t.Fatalf("Open accepted a manifest naming no snapshot: %+v", m)
		}
		if _, err := s.ReadSnapshot(m.Snapshot, m.SnapshotSum); err != nil {
			t.Fatalf("Open accepted a manifest whose snapshot its own GC collected: %v", err)
		}
	})
}
