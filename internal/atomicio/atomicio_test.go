package atomicio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	frames, clean, tailErr := ScanFrames(buf)
	if tailErr != nil {
		t.Fatalf("ScanFrames tailErr = %v", tailErr)
	}
	if clean != len(buf) {
		t.Fatalf("clean = %d, want %d", clean, len(buf))
	}
	if len(frames) != len(payloads) {
		t.Fatalf("got %d frames, want %d", len(frames), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(frames[i], p) {
			t.Fatalf("frame %d = %q, want %q", i, frames[i], p)
		}
	}
}

func TestDecodeFrameTruncation(t *testing.T) {
	frame := EncodeFrame([]byte("payload-bytes"))
	// Truncation at every byte boundary short of the full frame must
	// report ErrTruncatedFrame (and therefore ErrCorruptFrame).
	for n := 0; n < len(frame); n++ {
		_, _, err := DecodeFrame(frame[:n])
		if !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("len %d: err = %v, want ErrTruncatedFrame", n, err)
		}
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("len %d: err = %v, want ErrCorruptFrame", n, err)
		}
	}
	if _, _, err := DecodeFrame(frame); err != nil {
		t.Fatalf("full frame: err = %v", err)
	}
}

func TestDecodeFrameBitFlip(t *testing.T) {
	frame := EncodeFrame([]byte("stable payload"))
	for bit := 0; bit < len(frame)*8; bit += 7 {
		mut := append([]byte(nil), frame...)
		mut[bit/8] ^= 1 << (bit % 8)
		_, _, err := DecodeFrame(mut)
		if err == nil {
			t.Fatalf("bit %d: flip went undetected", bit)
		}
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("bit %d: err = %v, want ErrCorruptFrame", bit, err)
		}
	}
}

func TestScanFramesTornTail(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, []byte("first"))
	buf = AppendFrame(buf, []byte("second"))
	clean := len(buf)
	torn := append(buf, EncodeFrame([]byte("third"))[:9]...)

	frames, gotClean, tailErr := ScanFrames(torn)
	if len(frames) != 2 || gotClean != clean {
		t.Fatalf("frames=%d clean=%d, want 2 clean=%d", len(frames), gotClean, clean)
	}
	if !errors.Is(tailErr, ErrTruncatedFrame) {
		t.Fatalf("tailErr = %v, want ErrTruncatedFrame", tailErr)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	fs := NewFS(nil)
	if err := fs.WriteFile(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("contents = %q, want v2", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// scriptedHook returns a fixed decision for the Nth matching op.
type scriptedHook struct {
	op       Op
	fireAt   int
	decision Decision
	seen     int
}

func (h *scriptedHook) Decide(op Op, path string) Decision {
	if op != h.op {
		return Decision{}
	}
	h.seen++
	if h.seen == h.fireAt {
		return h.decision
	}
	return Decision{}
}

// mustCrash runs fn and asserts it panics with *Crash at the given op.
func mustCrash(t *testing.T, wantOp Op, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		c, ok := r.(*Crash)
		if !ok {
			t.Fatalf("recover() = %v, want *Crash", r)
		}
		if c.Op != wantOp {
			t.Fatalf("Crash.Op = %v, want %v", c.Op, wantOp)
		}
	}()
	fn()
	t.Fatal("fn returned without crashing")
}

func TestWriteFileCrashBefore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	fs := NewFS(nil)
	if err := fs.WriteFile(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	fs = NewFS(&scriptedHook{op: OpWriteFile, fireAt: 1, decision: Decision{Outcome: CrashBefore}})
	mustCrash(t, OpWriteFile, func() { fs.WriteFile(path, []byte("new")) })
	got, _ := os.ReadFile(path)
	if string(got) != "old" {
		t.Fatalf("contents = %q, want old", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("CrashBefore left a temp file")
	}
}

func TestWriteFileCrashTorn(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	prod := NewFS(nil)
	if err := prod.WriteFile(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	fs := NewFS(&scriptedHook{op: OpWriteFile, fireAt: 1,
		decision: Decision{Outcome: CrashTorn, KeepBytes: 2}})
	mustCrash(t, OpWriteFile, func() { fs.WriteFile(path, []byte("new-contents")) })
	// Target untouched; torn bytes live only in the temp file.
	got, _ := os.ReadFile(path)
	if string(got) != "old" {
		t.Fatalf("contents = %q, want old", got)
	}
	tmp, err := os.ReadFile(path + ".tmp")
	if err != nil || string(tmp) != "ne" {
		t.Fatalf("temp = %q err=%v, want torn prefix \"ne\"", tmp, err)
	}
	// A later WriteFile over the same path (post-restart) wins.
	if err := prod.WriteFile(path, []byte("recovered")); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "recovered" {
		t.Fatalf("contents = %q, want recovered", got)
	}
}

func TestWriteFileCrashAfterTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	prod := NewFS(nil)
	if err := prod.WriteFile(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	fs := NewFS(&scriptedHook{op: OpWriteFile, fireAt: 1, decision: Decision{Outcome: CrashAfterTemp}})
	mustCrash(t, OpWriteFile, func() { fs.WriteFile(path, []byte("pending")) })
	// The partial-rename state: temp complete, target still old.
	got, _ := os.ReadFile(path)
	if string(got) != "old" {
		t.Fatalf("contents = %q, want old", got)
	}
	tmp, err := os.ReadFile(path + ".tmp")
	if err != nil || string(tmp) != "pending" {
		t.Fatalf("temp = %q err=%v, want complete \"pending\"", tmp, err)
	}
}

func TestWriteFileBitFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	payload := []byte("sensitive frame payload")
	frame := EncodeFrame(payload)
	fs := NewFS(&scriptedHook{op: OpWriteFile, fireAt: 1,
		decision: Decision{Outcome: BitFlip, FlipBit: 17 + frameHeaderLen*8}})
	if err := fs.WriteFile(path, frame); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(data, frame) {
		t.Fatal("BitFlip wrote unmodified data")
	}
	if _, _, err := DecodeFrame(data); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("DecodeFrame(flipped) = %v, want ErrCorruptFrame", err)
	}
}

func TestDeadFSStaysDead(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS(&scriptedHook{op: OpWriteFile, fireAt: 1, decision: Decision{Outcome: CrashBefore}})
	mustCrash(t, OpWriteFile, func() { fs.WriteFile(filepath.Join(dir, "a"), []byte("x")) })
	// Every later op on the same FS re-raises the original crash.
	mustCrash(t, OpWriteFile, func() { fs.WriteFile(filepath.Join(dir, "b"), []byte("y")) })
	if _, err := os.Stat(filepath.Join(dir, "b")); !os.IsNotExist(err) {
		t.Fatal("dead FS wrote a file")
	}
}

func TestAppenderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	fs := NewFS(nil)
	a, err := fs.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []string{"r1", "record-two", "r3"}
	for _, r := range recs {
		if err := a.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and append more — sizes and frames must line up.
	a, err = fs.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]byte("r4")); err != nil {
		t.Fatal(err)
	}
	a.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames, clean, tailErr := ScanFrames(data)
	if tailErr != nil || clean != len(data) {
		t.Fatalf("scan: clean=%d/%d tailErr=%v", clean, len(data), tailErr)
	}
	want := append(recs, "r4")
	if len(frames) != len(want) {
		t.Fatalf("got %d frames, want %d", len(frames), len(want))
	}
	for i, w := range want {
		if string(frames[i]) != w {
			t.Fatalf("frame %d = %q, want %q", i, frames[i], w)
		}
	}
}

func TestAppenderCrashTornLeavesRecoverableTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	prod := NewFS(nil)
	a, err := prod.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	a.Close()

	fs := NewFS(&scriptedHook{op: OpAppend, fireAt: 1,
		decision: Decision{Outcome: CrashTorn, KeepBytes: -1}})
	a, err = fs.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	mustCrash(t, OpAppend, func() { a.Append([]byte("torn-record")) })

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames, clean, tailErr := ScanFrames(data)
	if len(frames) != 1 || string(frames[0]) != "committed" {
		t.Fatalf("frames = %q, want [committed]", frames)
	}
	if !errors.Is(tailErr, ErrTruncatedFrame) {
		t.Fatalf("tailErr = %v, want ErrTruncatedFrame", tailErr)
	}
	// Torn-tail repair: truncate to the clean prefix, reopen, append again.
	if err := prod.Truncate(path, int64(clean)); err != nil {
		t.Fatal(err)
	}
	a, err = prod.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append([]byte("after-repair")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	data, _ = os.ReadFile(path)
	frames, _, tailErr = ScanFrames(data)
	if tailErr != nil || len(frames) != 2 || string(frames[1]) != "after-repair" {
		t.Fatalf("post-repair frames = %q tailErr=%v", frames, tailErr)
	}
}

func TestRemoveIdempotent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gone")
	fs := NewFS(nil)
	if err := fs.WriteFile(path, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(path); err != nil {
		t.Fatalf("second Remove = %v, want nil", err)
	}
}

// FuzzScanFrames: whatever the bytes, ScanFrames never panics, stops with an
// error exactly when it could not consume them all, and returns frames whose
// re-encoding — length, freshly computed checksum, payload — is the clean
// prefix byte for byte: no bad checksum returned, nothing skipped or invented.
func FuzzScanFrames(f *testing.F) {
	two := AppendFrame(EncodeFrame([]byte("first")), []byte("second payload"))
	flipped := append([]byte(nil), two...)
	flipped[frameHeaderLen+2] ^= 0x10
	for _, seed := range [][]byte{nil, two, two[:len(two)-3], flipped, EncodeFrame(nil), {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, clean, err := ScanFrames(data)
		if clean < 0 || clean > len(data) || (err == nil) != (clean == len(data)) {
			t.Fatalf("clean = %d of %d bytes with tailErr %v", clean, len(data), err)
		}
		if err != nil && !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("unclassified tail error: %v", err)
		}
		var re []byte
		for _, p := range frames {
			re = AppendFrame(re, p)
		}
		if !bytes.Equal(re, data[:clean]) {
			t.Fatalf("re-encoding %d frames gives %d bytes that differ from the %d-byte clean prefix", len(frames), len(re), clean)
		}
	})
}
