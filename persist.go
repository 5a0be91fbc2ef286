package loam

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"loam/internal/durable"
	"loam/internal/encoding"
	"loam/internal/predictor"
)

// This file is the deployment's durability seam: the only place serving code
// talks to internal/durable. Deploy-time it roots the store and commits the
// initial checkpoint; at runtime the lifecycle hooks call back in here to
// checkpoint every model transition and journal every feedback observation;
// RestoreDeployment is the warm-restore path that rebuilds a deployment at
// its last durable version. See DESIGN.md "Durability & recovery contract".
//
// Runtime persistence is fail-open: a checkpoint or journal write that
// errors leaves serving untouched (the durable.errors counter records it),
// because losing a recovery point is strictly better than losing the serving
// path. Injected crashes are panics, not errors — they propagate, which is
// exactly what the kill-point harness wants.

// durableState bundles a deployment's store and journal. Mutation happens
// only under the lifecycle mutex (or before serving starts), matching the
// store's single-writer contract.
type durableState struct {
	store *durable.Store
	jour  *durable.Journal
}

// checkpointState is one lifecycle transition's worth of durable state: the
// event, the lineage counters, the serving model, and — during probation —
// the rollback insurance.
type checkpointState struct {
	event   string
	version int
	parent  int
	next    int
	cur     *predictor.Predictor
	// probation/prev/prevVer carry rollback insurance; prev nil outside
	// probation.
	probation int
	prev      *predictor.Predictor
	prevVer   int
	// resetJournal discards the feedback journal with this checkpoint —
	// set exactly when the transition resets the drift detector, so the
	// journal always equals the detector's live window.
	resetJournal bool
}

// snapshotBytes serializes a predictor carrying its lifecycle version.
func snapshotBytes(p *predictor.Predictor, version int) ([]byte, error) {
	p.SetModelVersion(version)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// initDurable roots the deployment's durable store for a fresh deploy (or a
// model restore via DeployFromModel) and commits the initial checkpoint. The
// journal starts empty — matching the fresh drift detector.
func (d *Deployment) initDurable(o deployOptions) error {
	store, err := durable.Open(o.durableDir, o.durableFS)
	if err != nil {
		return err
	}
	store.Instrument(o.metrics)
	jour, err := store.Journal()
	if err != nil {
		return err
	}
	d.dur = &durableState{store: store, jour: jour}
	cs := checkpointState{
		event:        durable.EventDeploy,
		version:      1,
		next:         2,
		cur:          d.pred.Load(),
		resetJournal: true,
	}
	if d.lc != nil {
		cs.version, cs.next = d.lc.version, d.lc.next
	}
	return d.persistCheckpoint(cs)
}

// persistCheckpoint writes one durable recovery point, in the ordering that
// makes the manifest swap the commit point: snapshot files first, then the
// journal reset (when the detector window resets), then the manifest. A
// crash between any two steps recovers to either the old checkpoint with its
// journal intact or the new one — never a mix.
func (d *Deployment) persistCheckpoint(cs checkpointState) error {
	if d.dur == nil {
		return nil
	}
	data, err := snapshotBytes(cs.cur, cs.version)
	if err != nil {
		return fmt.Errorf("durable checkpoint %s: %w", cs.event, err)
	}
	name, sum, err := d.dur.store.PutSnapshot(cs.version, data)
	if err != nil {
		return err
	}
	man := durable.Manifest{
		Version:     cs.version,
		Parent:      cs.parent,
		Next:        cs.next,
		Event:       cs.event,
		Snapshot:    name,
		SnapshotSum: sum,
		Probation:   cs.probation,
	}
	if cs.prev != nil {
		prevData, err := snapshotBytes(cs.prev, cs.prevVer)
		if err != nil {
			return fmt.Errorf("durable checkpoint %s: %w", cs.event, err)
		}
		prevName, prevSum, err := d.dur.store.PutSnapshot(cs.prevVer, prevData)
		if err != nil {
			return err
		}
		man.PrevVersion, man.PrevSnapshot, man.PrevSum = cs.prevVer, prevName, prevSum
	}
	if cs.resetJournal {
		if err := d.dur.jour.Reset(); err != nil {
			return err
		}
	}
	return d.dur.store.Commit(man)
}

// persistProbationClear checkpoints a promoted model surviving probation:
// the manifest drops its rollback insurance, so the predecessor snapshot is
// collected. The journal keeps running — clearing probation does not reset
// the drift detector's window. Callers hold lc.mu.
func (lc *Lifecycle) persistProbationClear() {
	if lc.d.dur == nil {
		return
	}
	parent := 0
	if m := lc.d.dur.store.Manifest(); m != nil {
		parent = m.Parent
	}
	// Fail-open, as every runtime checkpoint.
	_ = lc.d.persistCheckpoint(checkpointState{
		event:   durable.EventProbationClear,
		version: lc.version,
		parent:  parent,
		next:    lc.next,
		cur:     lc.d.pred.Load(),
	})
}

// journalRecord is one persisted feedback observation: the serving-time
// estimate and the executed cost, exactly what the drift detector consumes.
// Non-finite values ride as null (JSON cannot encode NaN) and replay as NaN,
// which the detector treats the same way it did live.
type journalRecord struct {
	Predicted *float64 `json:"p"`
	Actual    *float64 `json:"a"`
}

// finitePtr boxes v for JSON, mapping non-finite values to null.
func finitePtr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// unbox reverses finitePtr.
func unbox(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}

// journalObservation appends one feedback observation to the durable
// journal. Fail-open: an append error is absorbed (and counted by the
// journal's telemetry); the observation still feeds the live detector.
func (d *Deployment) journalObservation(predicted, actual float64) {
	if d.dur == nil {
		return
	}
	payload, err := json.Marshal(journalRecord{
		Predicted: finitePtr(predicted),
		Actual:    finitePtr(actual),
	})
	if err != nil {
		return
	}
	// The append either lands durably, fails (journal telemetry counts it),
	// or panics on an injected crash — serving never blocks on it.
	_ = d.dur.jour.Append(payload)
}

// RestoreDeployment rebuilds a deployment from the durable store at dir —
// the crash-recovery path. The serving model is loaded from the manifest's
// checksummed snapshot; with a lifecycle attached (WithLifecycle), the
// lineage counters resume from the manifest, a restore that lands
// mid-probation re-arms the rollback insurance with its full stored budget,
// and the feedback journal replays through a fresh drift detector so the
// detector resumes its real window. The in-memory feedback store is NOT
// persisted — it refills from live traffic, and MinFeedback gates the first
// post-restore retrain until it has. Guard state (breaker, quarantine) always
// restarts clean. trainDays/testDays select the validation window as in
// DeployFromModel; opts work as in Deploy, with the durable store forced to
// dir. Restoring never commits a new checkpoint: a restart is not a lifecycle
// transition.
func (ps *ProjectSim) RestoreDeployment(dir string, trainDays, testDays int, opts ...DeployOption) (*Deployment, error) {
	o := resolveDeployOptions(opts)
	o.durableDir = dir
	store, err := durable.Open(dir, o.durableFS)
	if err != nil {
		return nil, fmt.Errorf("restore %s: %w", ps.Config.Name, err)
	}
	man := store.Manifest()
	if man == nil {
		return nil, fmt.Errorf("restore %s: no committed checkpoint at %s", ps.Config.Name, dir)
	}
	pred, err := ps.loadSnapshotPredictor(store, man.Snapshot, man.SnapshotSum, o)
	if err != nil {
		return nil, err
	}
	store.Instrument(o.metrics)
	jour, err := store.Journal()
	if err != nil {
		return nil, fmt.Errorf("restore %s: %w", ps.Config.Name, err)
	}

	train, test := ps.Repo.Split(trainDays, testDays, 0)
	d := ps.newDeployment(pred, encoding.NewEncoder(pred.EncoderConfig()), len(train), test, o)
	d.dur = &durableState{store: store, jour: jour}
	if d.lc != nil {
		if err := d.lc.resume(store, man, jour, ps, o); err != nil {
			return nil, fmt.Errorf("restore %s: %w", ps.Config.Name, err)
		}
	}
	store.NoteRestore()
	return d, nil
}

// loadSnapshotPredictor reads and deserializes one checksummed snapshot.
func (ps *ProjectSim) loadSnapshotPredictor(store *durable.Store, name string, sum uint64, o deployOptions) (*predictor.Predictor, error) {
	data, err := store.ReadSnapshot(name, sum)
	if err != nil {
		return nil, fmt.Errorf("restore %s: %w", ps.Config.Name, err)
	}
	pred, err := predictor.Load(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("restore %s: snapshot %s: %w", ps.Config.Name, name, err)
	}
	pred.Instrument(o.metrics)
	pred.EnablePlanCache(o.planCache)
	return pred, nil
}

// resume re-arms a freshly attached lifecycle from the manifest: lineage
// counters, mid-probation rollback insurance, and the drift detector's
// window replayed from the journal. A drift signal that fires during replay
// leaves the retrain pending, exactly as a live signal would.
func (lc *Lifecycle) resume(store *durable.Store, man *durable.Manifest, jour *durable.Journal, ps *ProjectSim, o deployOptions) error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.version, lc.next = man.Version, man.Next
	lc.tel.modelVersion.Set(float64(man.Version))
	if man.Probation > 0 && man.PrevSnapshot != "" {
		prev, err := ps.loadSnapshotPredictor(store, man.PrevSnapshot, man.PrevSum, o)
		if err != nil {
			return err
		}
		lc.prev, lc.prevVer = prev, man.PrevVersion
		// The full stored budget re-arms: per-observation decrements are
		// deliberately not persisted, so a crash loop cannot bleed a bad
		// model's probation away one restart at a time.
		lc.probationLeft = man.Probation
	}
	fired := false
	err := jour.Replay(func(payload []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("%w: journal record: %v", durable.ErrCorruptStore, err)
		}
		if lc.det.Observe(unbox(rec.Predicted), unbox(rec.Actual)) {
			fired = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	lc.pendingRetrain = fired
	return nil
}
