package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"loam/internal/atomicio"
)

// Journal is the append-only feedback log: one checksummed frame per
// record, fsynced on append, split into numbered segments. The drift
// detector's observation window is rebuilt by replaying it after a restart.
//
// Durability semantics: a record is durable when Append returns. A crash
// mid-append leaves a torn tail on the last segment; OpenJournal truncates
// it back to the last clean frame, so replay sees exactly the acknowledged
// prefix. The lifecycle resets the journal at every checkpoint event
// (promote/rollback reset the drift detector, so the journal's window
// starts over with it) — the journal never outlives its manifest.
type Journal struct {
	dir string
	fs  *atomicio.FS
	tel *storeTelemetry
	seq int
	// app appends to segment seq; nil after a rotate or Reset closed the
	// last one and could not open the next, which the next Append or Reset
	// opens again.
	app *atomicio.Appender
	// maxSegment rotates the segment once its size passes this many bytes;
	// keep bounds how many closed segments survive rotation.
	maxSegment int64
	keep       int
}

const (
	defaultMaxSegment = 64 << 10
	defaultKeep       = 4
)

// segmentName returns the journal filename for segment seq.
func segmentName(seq int) string { return fmt.Sprintf("seg-%06d.log", seq) }

// Journal opens the store's feedback journal, repairing any torn tail left
// by a crash. The returned journal is positioned to append after the last
// clean record.
func (s *Store) Journal() (*Journal, error) {
	j := &Journal{
		dir:        filepath.Join(s.dir, journalDir),
		fs:         s.fs,
		tel:        &s.tel,
		maxSegment: defaultMaxSegment,
		keep:       defaultKeep,
	}
	segs, err := j.segments()
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		if err := j.repairTail(last); err != nil {
			return nil, err
		}
		j.seq = last
	}
	if err := j.open(); err != nil {
		return nil, err
	}
	return j, nil
}

// segments lists the journal's segment numbers in ascending order.
func (j *Journal) segments() ([]int, error) {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list journal: %w", err)
	}
	var segs []int
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.log", &n); err == nil {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// repairTail truncates segment seq back to its last clean frame. Only the
// final segment may carry a torn tail; corruption before the tail of an
// earlier segment is detected by Replay as ErrCorruptStore.
func (j *Journal) repairTail(seq int) error {
	path := filepath.Join(j.dir, segmentName(seq))
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("durable: read journal %s: %w", segmentName(seq), err)
	}
	_, clean, tailErr := atomicio.ScanFrames(data)
	if tailErr == nil {
		return nil
	}
	// Only a truncated trailing frame is crash residue; a checksum failure
	// means a complete record rotted on disk, and truncating would silently
	// destroy it plus everything after it.
	if !errors.Is(tailErr, atomicio.ErrTruncatedFrame) {
		return fmt.Errorf("%w: journal %s: %v", ErrCorruptStore, segmentName(seq), tailErr)
	}
	if err := j.fs.Truncate(path, int64(clean)); err != nil {
		j.tel.errors.Inc()
		return err
	}
	j.tel.journalTruncated.Inc()
	return nil
}

// Append writes one record as a checksummed, fsynced frame, rotating the
// segment when it passes the size threshold, and opening it when a failed
// open left none.
func (j *Journal) Append(payload []byte) error {
	if j.app == nil {
		if err := j.open(); err != nil {
			return err
		}
	} else if j.app.Size() >= j.maxSegment {
		if err := j.rotate(); err != nil {
			return err
		}
	}
	if err := j.app.Append(payload); err != nil {
		j.tel.errors.Inc()
		return err
	}
	j.tel.journalAppends.Inc()
	return nil
}

// closeSegment closes the open segment, if any, and moves on to the next
// number. The journal holds no appender afterwards, whether or not the close
// succeeded: every acknowledged record is already fsynced.
func (j *Journal) closeSegment() error {
	var err error
	if j.app != nil {
		err = j.app.Close()
		j.app = nil
	}
	j.seq++
	return err
}

// open opens segment seq for appends.
func (j *Journal) open() error {
	app, err := j.fs.OpenAppend(filepath.Join(j.dir, segmentName(j.seq)))
	if err != nil {
		return err
	}
	j.app = app
	return nil
}

// rotate closes the current segment, opens the next, and drops closed
// segments beyond the retention bound.
func (j *Journal) rotate() error {
	if err := j.closeSegment(); err != nil {
		return err
	}
	if err := j.open(); err != nil {
		return err
	}
	segs, err := j.segments()
	if err != nil {
		return err
	}
	for len(segs) > j.keep {
		if err := j.fs.Remove(filepath.Join(j.dir, segmentName(segs[0]))); err != nil {
			j.tel.errors.Inc()
			return err
		}
		segs = segs[1:]
	}
	return nil
}

// Replay streams every clean record, oldest first, through fn. A torn tail
// on the last segment ends replay silently (OpenJournal already truncated
// it for appends); corruption anywhere else is ErrCorruptStore.
func (j *Journal) Replay(fn func(payload []byte) error) error {
	segs, err := j.segments()
	if err != nil {
		return err
	}
	for i, seq := range segs {
		data, err := os.ReadFile(filepath.Join(j.dir, segmentName(seq)))
		if err != nil {
			return fmt.Errorf("durable: read journal %s: %w", segmentName(seq), err)
		}
		frames, _, tailErr := atomicio.ScanFrames(data)
		if tailErr != nil {
			if i != len(segs)-1 || !errors.Is(tailErr, atomicio.ErrTruncatedFrame) {
				return fmt.Errorf("%w: journal %s: %v", ErrCorruptStore, segmentName(seq), tailErr)
			}
		}
		for _, f := range frames {
			if err := fn(f); err != nil {
				return err
			}
			j.tel.journalReplayed.Inc()
		}
	}
	return nil
}

// Reset discards every record and starts a fresh segment — the lifecycle
// calls it when the drift detector's window resets at a checkpoint event.
func (j *Journal) Reset() error {
	if err := j.closeSegment(); err != nil {
		return err
	}
	segs, err := j.segments()
	if err != nil {
		return err
	}
	for _, seq := range segs {
		if err := j.fs.Remove(filepath.Join(j.dir, segmentName(seq))); err != nil {
			j.tel.errors.Inc()
			return err
		}
	}
	if err := j.open(); err != nil {
		return err
	}
	j.tel.journalResets.Inc()
	return nil
}

// Close closes the open segment, if one is open.
func (j *Journal) Close() error {
	if j.app == nil {
		return nil
	}
	return j.app.Close()
}
