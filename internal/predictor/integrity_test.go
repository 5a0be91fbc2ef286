package predictor

// Pinned tests for the snapshot corruption taxonomy (ISSUE 9): integrity
// failures (bad checksum, truncated frame, unrecognizable header) must wrap
// BOTH ErrSnapshotIntegrity and ErrCorruptSnapshot; structural failures stay
// ErrCorruptSnapshot-only; a retired v1 bare-JSON snapshot is an unrecognizable
// header (ISSUE 20).

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"loam/internal/atomicio"
	"loam/internal/encoding"
)

// trainedSnapshotBytes trains a tiny TCN and returns the predictor plus its
// framed v2 snapshot bytes.
func trainedSnapshotBytes(t *testing.T) (*Predictor, []byte) {
	t.Helper()
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(40, 24)
	orig, err := Train(tinyConfig(KindTCN), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return orig, buf.Bytes()
}

// wantIntegrity asserts err matches both sentinels.
func wantIntegrity(t *testing.T, err error, what string) {
	t.Helper()
	if !errors.Is(err, ErrSnapshotIntegrity) {
		t.Fatalf("%s: want ErrSnapshotIntegrity, got %v", what, err)
	}
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("%s: integrity error must also match ErrCorruptSnapshot, got %v", what, err)
	}
}

func TestLoadIntegrityTruncationEveryBoundary(t *testing.T) {
	_, framed := trainedSnapshotBytes(t)
	// A truncation anywhere — inside the magic, inside the frame header,
	// inside the payload — must fail as an integrity error, never load a
	// partial model, and never panic. Load reads all it is given before it
	// looks at any of it, so a Load per byte of a ~300 KB snapshot is
	// quadratic; what is tried instead is every byte where the branch taken
	// can change — all of the magic and the frame header, one byte either
	// side of each boundary, the last 64 bytes — and a 257-point stride
	// through the payload, where every length fails the same length check
	// (FuzzLoad seeds truncations too).
	const header = len(snapshotMagic) + 16 // magic, then the frame's length and checksum
	cuts := map[int]bool{}
	for n := 0; n <= header+1; n++ {
		cuts[n] = true
	}
	for n := len(framed) - 64; n < len(framed); n++ {
		cuts[n] = true
	}
	for n := header; n < len(framed); n += (len(framed)-header)/257 + 1 {
		cuts[n] = true
	}
	for n := range cuts {
		if n < 0 || n >= len(framed) {
			continue
		}
		_, err := Load(bytes.NewReader(framed[:n]))
		if err == nil {
			t.Fatalf("truncation at byte %d loaded successfully", n)
		}
		wantIntegrity(t, err, "truncation")
	}
	if len(cuts) < header+64+257 {
		t.Fatalf("only %d truncation points tried", len(cuts))
	}
	if _, err := Load(bytes.NewReader(framed)); err != nil {
		t.Fatalf("untruncated snapshot: %v", err)
	}
}

func TestLoadIntegrityBitFlip(t *testing.T) {
	_, framed := trainedSnapshotBytes(t)
	// Stride across the file so the flips land in the magic, the frame
	// header, and the payload body; every single-bit flip must surface as
	// corruption (the JSON payload has no slack bits: length and checksum
	// guard all of it).
	stride := len(framed) * 8 / 257
	if stride < 1 {
		stride = 1
	}
	for bit := 0; bit < len(framed)*8; bit += stride {
		mut := append([]byte(nil), framed...)
		mut[bit/8] ^= 1 << (bit % 8)
		_, err := Load(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("bit flip at %d loaded successfully", bit)
		}
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("bit flip at %d: want ErrCorruptSnapshot, got %v", bit, err)
		}
	}
}

func TestLoadIntegrityChecksumMismatch(t *testing.T) {
	_, framed := trainedSnapshotBytes(t)
	// Flip a payload bit specifically (past magic + frame header): the frame
	// length still matches, so the failure is the checksum — the pure
	// bit-rot case.
	mut := append([]byte(nil), framed...)
	mut[len(mut)-1] ^= 0x01
	_, err := Load(bytes.NewReader(mut))
	wantIntegrity(t, err, "payload bit rot")
	if !errors.Is(err, atomicio.ErrChecksum) {
		t.Fatalf("payload bit rot: want ErrChecksum in chain, got %v", err)
	}
}

func TestStructuralErrorIsNotIntegrity(t *testing.T) {
	snap := savedSnapshot(t, KindTCN)
	editParams(t, snap, func(p [][]float64) [][]float64 { return p[:len(p)-1] })
	lerr := loadSnapshot(t, snap)
	if !errors.Is(lerr, ErrCorruptSnapshot) {
		t.Fatalf("want ErrCorruptSnapshot, got %v", lerr)
	}
	if errors.Is(lerr, ErrSnapshotIntegrity) {
		t.Fatalf("structural mismatch must not claim an integrity failure: %v", lerr)
	}
}

// TestLoadRejectsV1Snapshot: the bare-JSON v1 form — which nothing has
// written since PR 9, and which carries no checksum to verify before decoding
// — is no longer read. An otherwise perfectly valid v1 snapshot is an
// unrecognized header, like any other bytes without the magic.
func TestLoadRejectsV1Snapshot(t *testing.T) {
	_, framed := trainedSnapshotBytes(t)
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(framedPayload(t, framed), &snap); err != nil {
		t.Fatal(err)
	}
	snap["version"] = json.RawMessage("1")
	delete(snap, "model")
	v1, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(bytes.NewReader(v1))
	wantIntegrity(t, err, "bare-JSON v1 snapshot")
}

func TestModelVersionRoundTrip(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(40, 25)
	orig, err := Train(tinyConfig(KindTCN), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	orig.SetModelVersion(7)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ModelVersion() != 7 {
		t.Fatalf("model version = %d, want 7", loaded.ModelVersion())
	}
}
