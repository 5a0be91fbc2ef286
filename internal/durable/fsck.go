package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"loam/internal/atomicio"
)

// Problem is one integrity violation fsck found. Path is store-relative so
// reports are deterministic across machines.
type Problem struct {
	Path   string `json:"path"`
	Detail string `json:"detail"`
}

// Report is the result of an offline store check. A torn journal tail is
// reported separately from Problems: it is the normal residue of a crash
// (Open repairs it), not corruption.
type Report struct {
	Manifest *Manifest `json:"manifest,omitempty"`
	// JournalSegments / JournalRecords count the clean journal contents.
	JournalSegments int `json:"journalSegments"`
	JournalRecords  int `json:"journalRecords"`
	// TornTail reports a repairable partial frame at the journal's end.
	TornTail bool `json:"tornTail"`
	// Orphans are model files no manifest references (repairable by GC).
	Orphans  []string  `json:"orphans,omitempty"`
	Problems []Problem `json:"problems,omitempty"`
}

// OK reports whether the store is consistent (torn tails and orphans are
// repairable and do not fail the check).
func (r *Report) OK() bool { return len(r.Problems) == 0 }

// Render writes the deterministic human-readable report.
func (r *Report) Render(w io.Writer) {
	if r.OK() {
		fmt.Fprintln(w, "fsck ok")
	} else {
		fmt.Fprintln(w, "fsck CORRUPT")
	}
	if r.Manifest != nil {
		m := r.Manifest
		fmt.Fprintf(w, "manifest seq=%d version=%d parent=%d next=%d event=%s probation=%d\n",
			m.Seq, m.Version, m.Parent, m.Next, m.Event, m.Probation)
		fmt.Fprintf(w, "snapshot %s sum=%016x\n", m.Snapshot, m.SnapshotSum)
		if m.PrevSnapshot != "" {
			fmt.Fprintf(w, "rollback %s sum=%016x (version %d)\n", m.PrevSnapshot, m.PrevSum, m.PrevVersion)
		}
	}
	fmt.Fprintf(w, "journal segments=%d records=%d tornTail=%v\n",
		r.JournalSegments, r.JournalRecords, r.TornTail)
	for _, o := range r.Orphans {
		fmt.Fprintf(w, "orphan %s\n", o)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "problem %s: %s\n", p.Path, p.Detail)
	}
}

// Fsck verifies a store directory offline without mutating it: the manifest
// frame, every referenced snapshot's checksum, and journal segment
// integrity. It never repairs; Open does that.
func Fsck(dir string) *Report {
	r := &Report{}
	problem := func(path, format string, args ...any) {
		r.Problems = append(r.Problems, Problem{Path: path, Detail: fmt.Sprintf(format, args...)})
	}

	man, err := readManifest(dir)
	if err != nil {
		problem(manifestFile, "%v", errors.Unwrap(err))
	} else if man == nil {
		problem(manifestFile, "missing: store has no recovery point")
	}
	r.Manifest = man

	// Snapshots: every referenced file must exist and match its checksum;
	// unreferenced files are repairable orphans.
	referenced := map[string]uint64{}
	if man != nil {
		referenced[man.Snapshot] = man.SnapshotSum
		if man.PrevSnapshot != "" {
			referenced[man.PrevSnapshot] = man.PrevSum
		}
	}
	models := filepath.Join(dir, modelsDir)
	present := map[string]bool{}
	if ents, err := os.ReadDir(models); err == nil {
		for _, e := range ents {
			present[e.Name()] = true
			if _, ok := referenced[e.Name()]; !ok {
				r.Orphans = append(r.Orphans, e.Name())
			}
		}
	} else if man != nil {
		problem(modelsDir, "unreadable: %v", err)
	}
	sort.Strings(r.Orphans)
	names := make([]string, 0, len(referenced))
	for name := range referenced {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rel := filepath.Join(modelsDir, name)
		if !present[name] {
			problem(rel, "referenced by manifest but missing")
			continue
		}
		data, err := os.ReadFile(filepath.Join(models, name))
		if err != nil {
			problem(rel, "unreadable: %v", err)
			continue
		}
		if got := atomicio.Checksum(data); got != referenced[name] {
			problem(rel, "checksum %016x, manifest says %016x", got, referenced[name])
		}
	}

	// Journal: every segment must scan cleanly except a torn tail on the
	// last one.
	jdir := filepath.Join(dir, journalDir)
	var segs []int
	if ents, err := os.ReadDir(jdir); err == nil {
		for _, e := range ents {
			var n int
			if _, err := fmt.Sscanf(e.Name(), "seg-%06d.log", &n); err == nil {
				segs = append(segs, n)
			}
		}
	}
	sort.Ints(segs)
	r.JournalSegments = len(segs)
	for i, seq := range segs {
		rel := filepath.Join(journalDir, segmentName(seq))
		data, err := os.ReadFile(filepath.Join(jdir, segmentName(seq)))
		if err != nil {
			problem(rel, "unreadable: %v", err)
			continue
		}
		frames, _, tailErr := atomicio.ScanFrames(data)
		r.JournalRecords += len(frames)
		if tailErr == nil {
			continue
		}
		if i == len(segs)-1 && errors.Is(tailErr, atomicio.ErrTruncatedFrame) {
			r.TornTail = true
		} else {
			problem(rel, "%v", tailErr)
		}
	}
	return r
}
