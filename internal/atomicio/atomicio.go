// Package atomicio is the repository's one sanctioned write primitive: every
// byte the serving stack persists — model checkpoints, manifests, feedback
// journal segments, benchmark artifacts — flows through this package
// (loam-vet's iodiscipline analyzer confines the raw os write calls here).
// It provides exactly two mechanisms, and no policy:
//
//   - Atomic whole-file replacement. FS.WriteFile writes to a temp file in
//     the destination directory, fsyncs it, renames it over the target, and
//     fsyncs the directory. A reader (or a post-crash restart) sees either
//     the old contents or the new contents, never a prefix of the new.
//
//   - Checksummed frames. A frame is [8-byte big-endian payload length]
//     [8-byte big-endian FNV-64a of the payload][payload]. Frames make both
//     torn tails (a crash mid-append) and silent bit rot detectable on read:
//     ScanFrames separates the clean prefix of a journal from its torn tail,
//     and DecodeFrame distinguishes truncation from checksum mismatch.
//
// The FS carries an optional fault hook so the durability layer's kill-point
// sweep (internal/faultinject; TestKillPointSweepRecoversEveryWrite, `make
// chaos-recover`) can crash a run at any write point with a deterministically
// torn, pending, or bit-flipped artifact on disk. A crash outcome panics with
// *Crash and permanently deadens the FS — a dead process writes nothing more
// — which is exactly the state a kill -9 leaves behind. A production FS
// (NewFS(nil) or the package Default) never panics and adds no overhead
// beyond the fsyncs.
package atomicio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Frame layout: 8-byte length, 8-byte FNV-64a checksum, payload.
const frameHeaderLen = 16

// maxFramePayload bounds a frame declared length so a corrupt header cannot
// drive a multi-gigabyte allocation on read.
const maxFramePayload = 1 << 30

// Sentinel errors for frame decoding. Both wrap ErrCorruptFrame, so callers
// that only care about "this data is not trustworthy" match once with
// errors.Is(err, ErrCorruptFrame) while integrity tooling can still tell a
// short read from bit rot.
var (
	// ErrCorruptFrame is the root sentinel: the bytes do not decode as the
	// checksummed frame they claim to be.
	ErrCorruptFrame = errors.New("atomicio: corrupt frame")
	// ErrTruncatedFrame reports a frame cut short — fewer bytes than the
	// header, or than the header's declared payload length, promise.
	ErrTruncatedFrame = fmt.Errorf("%w: truncated", ErrCorruptFrame)
	// ErrChecksum reports a complete frame whose payload hashes to a
	// different FNV-64a than the header recorded — silent corruption.
	ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorruptFrame)
)

// Checksum returns the FNV-64a hash of data — the same hash frames embed,
// exported so manifests can record whole-file checksums for fsck.
func Checksum(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// AppendFrame appends one encoded frame carrying payload to dst and returns
// the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(len(payload)))
	binary.BigEndian.PutUint64(hdr[8:16], Checksum(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// EncodeFrame returns payload encoded as a single frame.
func EncodeFrame(payload []byte) []byte {
	return AppendFrame(make([]byte, 0, frameHeaderLen+len(payload)), payload)
}

// DecodeFrame decodes the first frame in data, returning its payload and the
// remaining bytes. A short buffer returns ErrTruncatedFrame; a payload that
// fails its checksum returns ErrChecksum.
func DecodeFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < frameHeaderLen {
		return nil, nil, fmt.Errorf("%w: %d header bytes of %d", ErrTruncatedFrame, len(data), frameHeaderLen)
	}
	n := binary.BigEndian.Uint64(data[0:8])
	sum := binary.BigEndian.Uint64(data[8:16])
	if n > maxFramePayload {
		return nil, nil, fmt.Errorf("%w: implausible payload length %d", ErrCorruptFrame, n)
	}
	body := data[frameHeaderLen:]
	if uint64(len(body)) < n {
		return nil, nil, fmt.Errorf("%w: %d payload bytes of %d", ErrTruncatedFrame, len(body), n)
	}
	payload = body[:n]
	if Checksum(payload) != sum {
		return nil, nil, ErrChecksum
	}
	return payload, body[n:], nil
}

// ScanFrames walks data frame by frame, returning every cleanly decoded
// payload, the byte length of that clean prefix, and the error that stopped
// the scan (nil when data is exhausted exactly). A torn tail — the partial
// frame a crash mid-append leaves — comes back as the frames before it,
// clean set to where the tear starts, and tailErr reporting why. Payloads
// alias data; copy them if data is reused.
func ScanFrames(data []byte) (frames [][]byte, clean int, tailErr error) {
	rest := data
	for len(rest) > 0 {
		payload, next, err := DecodeFrame(rest)
		if err != nil {
			return frames, clean, err
		}
		frames = append(frames, payload)
		clean += frameHeaderLen + len(payload)
		rest = next
	}
	return frames, clean, nil
}

// Op classifies a write operation for the fault hook.
type Op int

const (
	// OpWriteFile is an atomic whole-file replacement.
	OpWriteFile Op = iota
	// OpAppend is one frame appended to an open journal segment.
	OpAppend
	// OpRemove is a file deletion (checkpoint GC, segment retirement).
	OpRemove
	// OpTruncate is a tail truncation (torn-tail repair on journal open).
	OpTruncate
)

// String renders the op as its stable label.
func (o Op) String() string {
	switch o {
	case OpAppend:
		return "append"
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	default:
		return "write"
	}
}

// Outcome is a fault hook's decision for one write operation.
type Outcome int

const (
	// Proceed performs the operation normally.
	Proceed Outcome = iota
	// CrashBefore kills the process before any byte reaches disk: the
	// operation leaves no trace.
	CrashBefore
	// CrashTorn kills the process mid-write: a prefix of the bytes lands
	// (in the temp file for OpWriteFile, at the segment tail for OpAppend)
	// and is never synced or renamed.
	CrashTorn
	// CrashAfterTemp kills the process after the temp file is fully written
	// and synced but before the rename — the partial-rename state. For
	// OpAppend it behaves as a crash after a complete, synced append.
	CrashAfterTemp
	// BitFlip completes the operation but flips one bit in the written
	// bytes — silent media corruption the checksums must catch on read. It
	// does not kill the process.
	BitFlip
)

// Decision is a fault hook's full answer: the outcome plus its parameters.
type Decision struct {
	Outcome Outcome
	// KeepBytes is how many payload bytes a CrashTorn write lands before
	// dying (clamped to the payload; negative keeps half).
	KeepBytes int
	// FlipBit is the bit index a BitFlip corrupts (modulo the payload size).
	FlipBit int
}

// Hook decides the fate of each write operation. Implementations must be
// deterministic functions of their own state — the chaos harness replays
// same-seed runs and asserts byte-identical trajectories.
type Hook interface {
	Decide(op Op, path string) Decision
}

// Crash is the panic value a crash outcome raises: the simulated kill point.
// The chaos harness recovers it at the top of its serve loop; nothing else
// should. After a Crash the FS is dead — every later operation re-panics
// with the same value, the way a killed process performs no further writes.
type Crash struct {
	Op   Op
	Path string
}

// Error renders the kill point; *Crash satisfies error so recover sites can
// type-switch or errors.As against it.
func (c *Crash) Error() string {
	return fmt.Sprintf("atomicio: injected crash at %s %s", c.Op, filepath.Base(c.Path))
}

// FS performs the sanctioned writes, optionally under a fault hook. The zero
// value is not usable; call NewFS. FS is safe for concurrent use: the hook's
// own determinism contract is the only ordering assumption.
type FS struct {
	hook Hook
	dead atomic.Pointer[Crash]
}

// NewFS returns an FS; hook may be nil for production use.
func NewFS(hook Hook) *FS { return &FS{hook: hook} }

// Default is the production FS: no fault hook, never panics.
var Default = NewFS(nil)

// decide consults the hook and enforces the dead-after-crash rule.
func (fs *FS) decide(op Op, path string) Decision {
	if c := fs.dead.Load(); c != nil {
		panic(c)
	}
	if fs.hook == nil {
		return Decision{}
	}
	return fs.hook.Decide(op, path)
}

// crash marks the FS dead and raises the kill point.
func (fs *FS) crash(op Op, path string) {
	c := &Crash{Op: op, Path: path}
	fs.dead.CompareAndSwap(nil, c)
	panic(fs.dead.Load())
}

// keep resolves a CrashTorn decision's kept-byte count against a payload.
func keep(d Decision, n int) int {
	k := d.KeepBytes
	if k < 0 {
		k = n / 2
	}
	if k > n {
		k = n
	}
	return k
}

// flip flips the decision's bit in buf (no-op on an empty buffer).
func flip(d Decision, buf []byte) {
	if len(buf) == 0 {
		return
	}
	bit := d.FlipBit % (len(buf) * 8)
	if bit < 0 {
		bit += len(buf) * 8
	}
	buf[bit/8] ^= 1 << (bit % 8)
}

// WriteFile atomically replaces path with data: temp file in the same
// directory, fsync, rename, directory fsync. On any error the target is
// untouched (a stray temp file may remain; recovery ignores *.tmp).
func (fs *FS) WriteFile(path string, data []byte) error {
	d := fs.decide(OpWriteFile, path)
	switch d.Outcome {
	case CrashBefore:
		fs.crash(OpWriteFile, path)
	case BitFlip:
		data = append([]byte(nil), data...)
		flip(d, data)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return pathErr("create", tmp, err)
	}
	if d.Outcome == CrashTorn {
		f.Write(data[:keep(d, len(data))])
		f.Close()
		fs.crash(OpWriteFile, path)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return pathErr("write", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return pathErr("sync", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return pathErr("close", tmp, err)
	}
	if d.Outcome == CrashAfterTemp {
		fs.crash(OpWriteFile, path)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return pathErr("rename", tmp, err)
	}
	return syncDir(filepath.Dir(path))
}

// Remove deletes path (checkpoint GC, retired journal segments). A missing
// file is not an error — removal is idempotent across crash/restart.
func (fs *FS) Remove(path string) error {
	d := fs.decide(OpRemove, path)
	if d.Outcome == CrashBefore || d.Outcome == CrashTorn {
		fs.crash(OpRemove, path)
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return pathErr("remove", path, err)
	}
	if d.Outcome == CrashAfterTemp {
		fs.crash(OpRemove, path)
	}
	return nil
}

// Truncate cuts path to n bytes — torn-tail repair on journal open.
func (fs *FS) Truncate(path string, n int64) error {
	d := fs.decide(OpTruncate, path)
	if d.Outcome == CrashBefore || d.Outcome == CrashTorn {
		fs.crash(OpTruncate, path)
	}
	if err := os.Truncate(path, n); err != nil {
		return pathErr("truncate", path, err)
	}
	if d.Outcome == CrashAfterTemp {
		fs.crash(OpTruncate, path)
	}
	return nil
}

// pathErr wraps a file operation failure with the package prefix; keeping
// the one fmt.Errorf here (instead of at each call site) also keeps the
// errwrap double-prefix contract happy when the failing callee shares a
// name with an FS method.
func pathErr(verb, path string, err error) error {
	return fmt.Errorf("atomicio: %s %s: %w", verb, path, err)
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return pathErr("open dir", dir, err)
	}
	defer df.Close()
	// Some filesystems reject directory fsync; the rename itself is still
	// atomic there, so degrade silently rather than failing the write.
	df.Sync()
	return nil
}

// Appender appends checksummed frames to one journal segment, fsyncing each
// append so an acknowledged record survives a crash. Not safe for concurrent
// use; the journal serializes appends.
type Appender struct {
	fs   *FS
	f    *os.File
	path string
	size int64
}

// OpenAppend opens (creating if absent) path for frame appends at its
// current end.
func (fs *FS) OpenAppend(path string) (*Appender, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, pathErr("open append", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, pathErr("stat", path, err)
	}
	return &Appender{fs: fs, f: f, path: path, size: st.Size()}, nil
}

// Size returns the segment's current byte length (clean appends only).
func (a *Appender) Size() int64 { return a.size }

// Append writes payload as one frame and fsyncs. A torn crash lands a prefix
// of the frame — the torn tail ScanFrames truncates on the next open.
func (a *Appender) Append(payload []byte) error {
	d := a.fs.decide(OpAppend, a.path)
	switch d.Outcome {
	case CrashBefore:
		a.fs.crash(OpAppend, a.path)
	}
	frame := EncodeFrame(payload)
	if d.Outcome == BitFlip {
		flip(d, frame)
	}
	if d.Outcome == CrashTorn {
		a.f.Write(frame[:keep(d, len(frame))])
		a.f.Close()
		a.fs.crash(OpAppend, a.path)
	}
	if _, err := a.f.Write(frame); err != nil {
		return pathErr("append", a.path, err)
	}
	if err := a.f.Sync(); err != nil {
		return pathErr("sync", a.path, err)
	}
	a.size += int64(len(frame))
	if d.Outcome == CrashAfterTemp {
		a.fs.crash(OpAppend, a.path)
	}
	return nil
}

// Close closes the segment file.
func (a *Appender) Close() error {
	if err := a.f.Close(); err != nil {
		return pathErr("close", a.path, err)
	}
	return nil
}
