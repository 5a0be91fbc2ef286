package predictor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"loam/internal/atomicio"
	"loam/internal/encoding"
	"loam/internal/nn"
	"loam/internal/simrand"
	"loam/internal/xgb"
)

// snapshot is the serialized form of a trained predictor. Neural weights are
// stored as a flat list in the architecture's deterministic parameter order;
// Load rebuilds the architecture from Config and overwrites the weights.
//
// Snapshots from builds that had selectable scoring modes carry two more
// objects (the mode and its calibration). Load ignores unknown keys, so they
// still load and serve the f64 path those modes were certified to agree with
// (TestLoadIgnoresRemovedScoringKeys); Save writes neither.
type snapshot struct {
	Version int `json:"version"`
	// Model is the lifecycle lineage number (model.version) the predictor
	// was serving as when saved; 0 means untracked (v1 snapshots, or a
	// predictor trained outside a lifecycle).
	Model   int             `json:"model,omitempty"`
	Config  Config          `json:"config"`
	Encoder encoding.Config `json:"encoder"`
	MuY     float64         `json:"muY"`
	SigmaY  float64         `json:"sigmaY"`
	MeanEnv [4]float64      `json:"meanEnv"`
	Metrics Metrics         `json:"metrics"`
	// Params holds every trainable tensor's data in construction order
	// (neural kinds only).
	Params [][]float64 `json:"params,omitempty"`
	// XGB holds the serialized booster (XGBoost kind only).
	XGB json.RawMessage `json:"xgb,omitempty"`
}

// Snapshot format history:
//
//	v1 — bare JSON object (no framing, no checksum, no model version).
//	v2 — snapshotMagic followed by one atomicio frame whose payload is the
//	     JSON object; the frame checksum makes bit rot and truncation
//	     detectable before the decoder runs, and the object carries the
//	     lifecycle model version.
//
// Save always writes the current version; Load accepts both.
const (
	snapshotVersion = 2
	snapshotMagic   = "LOAMSNP2"
)

// ErrCorruptSnapshot marks a snapshot whose payload disagrees with the
// architecture its own config describes — truncated or missing tensors,
// shape mismatches, a booster-kind snapshot without a booster, or
// non-positive architecture dimensions. The lifecycle's hot-swap path (and
// any DeployFromModel caller) matches it with errors.Is to tell corruption
// from I/O failures; a Load that returns it has mutated nothing.
var ErrCorruptSnapshot = errors.New("predictor: corrupt model snapshot")

// ErrSnapshotIntegrity marks a snapshot whose bytes failed verification
// before decoding — a frame checksum mismatch, a truncated frame, or an
// unrecognizable header. Integrity errors also wrap ErrCorruptSnapshot, so
// existing errors.Is(err, ErrCorruptSnapshot) callers keep matching; fsck
// and the durable store match ErrSnapshotIntegrity to report media
// corruption distinctly from structural mismatch.
var ErrSnapshotIntegrity = errors.New("predictor: snapshot failed integrity check")

// integrityErr wraps both sentinels (multi-%w) around a detail error.
func integrityErr(detail error) error {
	return fmt.Errorf("%w: %w: %w", ErrSnapshotIntegrity, ErrCorruptSnapshot, detail)
}

// ModelVersion reports the lifecycle lineage number the predictor carries
// (0 = untracked).
func (p *Predictor) ModelVersion() int { return p.modelVersion }

// SetModelVersion stamps the lineage number serialized by Save. The
// lifecycle calls it at train/promote time; it must not race with Save.
func (p *Predictor) SetModelVersion(v int) { p.modelVersion = v }

// allParams returns the predictor's trainable tensors in a deterministic
// order (backbone, cost head, domain classifier).
func (p *Predictor) allParams() []*nn.Tensor {
	params := append([]*nn.Tensor{}, p.bb.params()...)
	params = append(params, p.costHead.Params()...)
	params = append(params, p.domHid.Params()...)
	params = append(params, p.domOut.Params()...)
	return params
}

// Save serializes the trained predictor to w in the v2 framed format: the
// magic header followed by one checksummed frame carrying the JSON snapshot.
func (p *Predictor) Save(w io.Writer) error {
	snap := snapshot{
		Version: snapshotVersion,
		Model:   p.modelVersion,
		Config:  p.cfg,
		Encoder: p.encCfg,
		MuY:     p.muY,
		SigmaY:  p.sigmaY,
		MeanEnv: p.trainMeanEnv,
		Metrics: p.metrics,
	}
	if p.cfg.Kind == KindXGBoost {
		data, err := json.Marshal(p.xgbModel)
		if err != nil {
			return fmt.Errorf("marshal booster: %w", err)
		}
		snap.XGB = data
	} else {
		for _, t := range p.allParams() {
			snap.Params = append(snap.Params, append([]float64(nil), t.Data...))
		}
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("marshal snapshot: %w", err)
	}
	out := append([]byte(snapshotMagic), atomicio.EncodeFrame(payload)...)
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("write snapshot: %w", err)
	}
	return nil
}

// Load restores a predictor saved with Save. It accepts both the current
// framed format and legacy v1 bare-JSON snapshots. The returned predictor
// serves predictions exactly as the original did.
func Load(r io.Reader) (*Predictor, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("read snapshot: %w", err)
	}
	var snap snapshot
	switch {
	case bytes.HasPrefix(data, []byte(snapshotMagic)):
		payload, rest, err := atomicio.DecodeFrame(data[len(snapshotMagic):])
		if err != nil {
			return nil, integrityErr(err)
		}
		if len(rest) != 0 {
			return nil, integrityErr(fmt.Errorf("%d trailing bytes after snapshot frame", len(rest)))
		}
		if err := json.Unmarshal(payload, &snap); err != nil {
			// The frame checksum passed, so this is a writer bug, not media
			// corruption — structural, not integrity.
			return nil, fmt.Errorf("%w: decode snapshot: %v", ErrCorruptSnapshot, err)
		}
		if snap.Version != snapshotVersion {
			return nil, fmt.Errorf("%w: framed snapshot declares version %d, want %d",
				ErrCorruptSnapshot, snap.Version, snapshotVersion)
		}
	case len(data) > 0 && data[0] == '{':
		// Legacy v1: bare JSON, no checksum to verify first.
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("%w: decode v1 snapshot: %v", ErrCorruptSnapshot, err)
		}
		if snap.Version != 1 {
			return nil, fmt.Errorf("%w: unsupported snapshot version %d", ErrCorruptSnapshot, snap.Version)
		}
	default:
		// Neither magic nor JSON: truncated below the header, or garbage.
		return nil, integrityErr(fmt.Errorf("unrecognized snapshot header (%d bytes)", len(data)))
	}
	return rebuildSnapshot(&snap)
}

// rebuildSnapshot rebuilds a predictor from a decoded snapshot.
func rebuildSnapshot(snap *snapshot) (*Predictor, error) {
	p := &Predictor{
		cfg:          snap.Config,
		enc:          encoding.NewEncoder(snap.Encoder),
		encCfg:       snap.Encoder,
		muY:          snap.MuY,
		sigmaY:       snap.SigmaY,
		trainMeanEnv: snap.MeanEnv,
		metrics:      snap.Metrics,
		modelVersion: snap.Model,
	}
	if snap.Config.Kind == KindXGBoost {
		if len(snap.XGB) == 0 {
			return nil, fmt.Errorf("%w: xgboost snapshot carries no booster", ErrCorruptSnapshot)
		}
		p.xgbModel = &xgb.Model{}
		if err := json.Unmarshal(snap.XGB, p.xgbModel); err != nil {
			return nil, fmt.Errorf("%w: unmarshal booster: %v", ErrCorruptSnapshot, err)
		}
		return p, nil
	}

	// Validate the architecture dimensions before rebuilding: a tampered
	// config with non-positive sizes would otherwise panic inside the layer
	// constructors.
	if snap.Config.Hidden <= 0 || snap.Config.Layers <= 0 || snap.Config.EmbDim <= 0 {
		return nil, fmt.Errorf("%w: non-positive architecture dims (hidden=%d layers=%d embdim=%d)",
			ErrCorruptSnapshot, snap.Config.Hidden, snap.Config.Layers, snap.Config.EmbDim)
	}

	// Rebuild the architecture, then overwrite the weights.
	rng := simrand.New(snap.Config.Seed)
	switch snap.Config.Kind {
	case KindTransformer:
		p.bb = newTransformer(rng, p.enc, snap.Config.Hidden, 2, snap.Config.EmbDim)
	case KindGCN:
		p.bb = newGCN(rng, p.enc, snap.Config.Hidden, snap.Config.Layers, snap.Config.EmbDim)
	default:
		p.bb = newTCN(rng, p.enc, snap.Config.Hidden, snap.Config.Layers, snap.Config.EmbDim)
	}
	p.costHead = nn.NewLinear(rng.Derive("cost"), snap.Config.EmbDim, 1)
	p.domHid = nn.NewLinear(rng.Derive("domHid"), snap.Config.EmbDim, snap.Config.Hidden)
	p.domOut = nn.NewLinear(rng.Derive("domOut"), snap.Config.Hidden, 2)

	// Every tensor is validated against the rebuilt architecture before any
	// weight is copied: a truncated or reshaped Params list (including a
	// neural-kind snapshot carrying a booster payload instead) fails loudly
	// here rather than panicking or silently corrupting weights.
	params := p.allParams()
	if len(params) != len(snap.Params) {
		return nil, fmt.Errorf("%w: snapshot has %d tensors, architecture needs %d",
			ErrCorruptSnapshot, len(snap.Params), len(params))
	}
	for i, t := range params {
		if len(t.Data) != len(snap.Params[i]) {
			return nil, fmt.Errorf("%w: tensor %d size mismatch: snapshot %d vs architecture %d",
				ErrCorruptSnapshot, i, len(snap.Params[i]), len(t.Data))
		}
	}
	for i, t := range params {
		copy(t.Data, snap.Params[i])
	}
	return p, nil
}
