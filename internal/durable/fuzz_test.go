package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
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

// FuzzOpenJournal opens a store whose journal holds arbitrary bytes, as its
// last segment or as the one before a clean last segment, and checks the
// journal's recovery contract. Store.Journal never panics. A segment that
// fails its checksum anywhere, or that is cut short anywhere but at the
// journal's end, is never truncated: the last segment's is refused with
// ErrCorruptStore at open, an earlier one's at replay and by Fsck. A torn
// tail on the last segment is cut back to its clean prefix, after which Fsck
// reports a consistent store with no torn tail and replay returns exactly the
// clean frames, in order.
func FuzzOpenJournal(f *testing.F) {
	clean := append(atomicio.EncodeFrame([]byte("a")), atomicio.EncodeFrame([]byte("bb"))...)
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(clean, true)
	f.Add(clean, false)
	f.Add([]byte{}, true)
	f.Add(clean[:len(clean)-1], true)
	f.Add(clean[:len(clean)-1], false)
	f.Add(clean[:5], true)
	f.Add(flipped, true)
	f.Add(flipped, false)
	f.Add(append(append([]byte(nil), clean...), 0xff), true)
	f.Fuzz(func(t *testing.T, data []byte, last bool) {
		dir := t.TempDir()
		s, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		name, sum, err := s.PutSnapshot(1, []byte("model-bytes"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(Manifest{Version: 1, Next: 2, Event: EventDeploy, Snapshot: name, SnapshotSum: sum}); err != nil {
			t.Fatal(err)
		}
		tail := atomicio.EncodeFrame([]byte("tail"))
		fuzzed, other := segmentName(2), segmentName(1)
		if !last {
			fuzzed, other = segmentName(1), segmentName(2)
		}
		jdir := filepath.Join(dir, journalDir)
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jdir, fuzzed), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jdir, other), tail, 0o644); err != nil {
			t.Fatal(err)
		}
		frames, cleanLen, tailErr := atomicio.ScanFrames(data)
		var want []string
		for _, fr := range frames {
			want = append(want, string(fr))
		}
		if last {
			want = append([]string{"tail"}, want...)
		} else {
			want = append(want, "tail")
		}
		torn := errors.Is(tailErr, atomicio.ErrTruncatedFrame)

		j, err := s.Journal()
		stored, rerr := os.ReadFile(filepath.Join(jdir, fuzzed))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if last && tailErr != nil && !torn {
			if !errors.Is(err, ErrCorruptStore) {
				t.Fatalf("open over a checksum failure in the last segment: %v, want ErrCorruptStore", err)
			}
			if !bytes.Equal(stored, data) {
				t.Fatal("open truncated a segment that failed its checksum")
			}
			return
		}
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer j.Close()
		var got []string
		rerr = j.Replay(func(p []byte) error {
			got = append(got, string(p))
			return nil
		})
		report := Fsck(dir)
		if !last && tailErr != nil {
			if !errors.Is(rerr, ErrCorruptStore) {
				t.Fatalf("replay over a bad earlier segment: %v, want ErrCorruptStore", rerr)
			}
			if report.OK() {
				t.Fatal("fsck passed a bad earlier segment")
			}
			if !bytes.Equal(stored, data) {
				t.Fatal("open truncated an earlier segment")
			}
			return
		}
		if rerr != nil {
			t.Fatalf("replay: %v", rerr)
		}
		if want := data[:cleanLen]; last && !bytes.Equal(stored, want) {
			t.Fatalf("the last segment holds %d bytes after open, want its clean %d", len(stored), len(want))
		}
		if !report.OK() || report.TornTail || report.JournalRecords != len(want) {
			t.Fatalf("fsck after open: ok=%v tornTail=%v records=%d, want ok, no torn tail, %d", report.OK(), report.TornTail, report.JournalRecords, len(want))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("replayed %q, want %q", got, want)
		}
	})
}
