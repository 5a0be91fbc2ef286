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
	// was serving as when saved; 0 means untracked (a predictor trained
	// outside a lifecycle).
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
//	v1 — bare JSON object (no framing, no checksum, no model version),
//	     written until PR 9. Its reader is retired: it decoded whatever began
//	     with '{' with nothing to verify first. Such bytes are now an
//	     unrecognized header.
//	v2 — snapshotMagic followed by one atomicio frame whose payload is the
//	     JSON object; the frame checksum makes bit rot and truncation
//	     detectable before the decoder runs, and the object carries the
//	     lifecycle model version.
//
// Save writes, and Load accepts, the current version only.
const (
	snapshotVersion = 2
	snapshotMagic   = "LOAMSNP2"
)

// ErrCorruptSnapshot marks a snapshot whose payload disagrees with the
// architecture its own config describes — truncated or missing tensors,
// shape mismatches, dimensions the carried weights cannot fill, or a
// booster-kind snapshot without a walkable booster of the encoder's width.
// The lifecycle's hot-swap path (and any DeployFromModel caller) matches it
// with errors.Is to tell corruption from I/O failures; a Load that returns it
// has mutated nothing.
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

// Load restores a predictor saved with Save; it serves predictions exactly as
// the original did. Load never panics and never returns a model that can:
// the bytes must be the magic and one checksummed frame (else
// ErrSnapshotIntegrity), and the config must need exactly the weights carried
// — or a booster of walkable trees as wide as the encoder (else
// ErrCorruptSnapshot).
func Load(r io.Reader) (*Predictor, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("read snapshot: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		// Truncated below the header, a retired bare-JSON v1 file, or garbage.
		return nil, integrityErr(fmt.Errorf("unrecognized snapshot header (%d bytes)", len(data)))
	}
	payload, rest, err := atomicio.DecodeFrame(data[len(snapshotMagic):])
	if err != nil {
		return nil, integrityErr(err)
	}
	if len(rest) != 0 {
		return nil, integrityErr(fmt.Errorf("%d trailing bytes after snapshot frame", len(rest)))
	}
	var snap snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		// The frame checksum passed, so this is a writer bug, not media
		// corruption — structural, not integrity.
		return nil, fmt.Errorf("%w: decode snapshot: %v", ErrCorruptSnapshot, err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("%w: framed snapshot declares version %d, want %d",
			ErrCorruptSnapshot, snap.Version, snapshotVersion)
	}
	return rebuildSnapshot(&snap)
}

// encoderWithin reports whether an encoder of configuration c (as NewEncoder
// normalized it: both sizes positive) is at most width features wide — by
// division, so sizes whose product overflows cannot pass as small.
func encoderWithin(c encoding.Config, width int) bool {
	return c.Segments <= width/c.SegmentDim
}

// checkParams decides by arithmetic, before any layer is allocated, whether
// cfg's architecture over enc is exactly the tensors a snapshot carries: an
// in×out weight tensor and a 1×out bias per Linear layer, in allParams order
// — as build and the backbone constructors make them (TestSaveLoadRoundTrip
// fails for a kind whose two statements disagree). Widths must be positive
// (the constructors panic on others, make on huge ones) and the encoder no
// wider than the first tensor, which reads it; sizes compare by division, and
// a width is some bias's real length before it is multiplied, so no product
// overflows and a huge Layers stops at the first missing tensor.
func checkParams(cfg Config, enc *encoding.Encoder, params [][]float64) error {
	n, encDim := 0, enc.Dim()
	linear := func(in, out int) bool {
		if 2*n+1 >= len(params) {
			return false
		}
		w, b := params[2*n], params[2*n+1]
		n++
		return out > 0 && len(b) == out && len(w)%out == 0 && len(w)/out == in
	}
	h, emb := cfg.Hidden, cfg.EmbDim
	ok := cfg.Layers > 0 && len(params) > 0 && encoderWithin(enc.Config(), len(params[0]))
	if cfg.Kind == KindTransformer {
		ok = ok && linear(encDim+1, h)
		for i := 0; i < 2 && ok; i++ {
			ok = linear(h, h) && linear(h, h) && linear(h, h) && linear(h, 2*h) && linear(2*h, h)
		}
		ok = ok && linear(2*h, emb)
	} else {
		fan, in := 3, encDim // a tree convolution reads [self; left; right]
		if cfg.Kind == KindGCN {
			fan = 1
		}
		for i := 0; i < cfg.Layers && ok; i++ {
			ok = linear(fan*in, h)
			in = h
		}
		ok = ok && linear(3*h, emb)
	}
	if ok = ok && linear(emb, 1) && linear(emb, h) && linear(h, 2); !ok || 2*n != len(params) {
		return fmt.Errorf("%w: %v hidden=%d layers=%d embdim=%d over encoder %+v does not take the %d tensors carried (mismatch at layer %d)",
			ErrCorruptSnapshot, cfg.Kind, h, cfg.Layers, emb, enc.Config(), len(params), n)
	}
	return nil
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
		// EncodeFlat allocates the encoder's width on every PredictCost; the
		// booster was binned over exactly that many features.
		if f := p.xgbModel.NumFeatures(); !encoderWithin(p.enc.Config(), f) || p.enc.Dim()+1 != f {
			return nil, fmt.Errorf("%w: booster has %d features, encoder %+v does not produce them",
				ErrCorruptSnapshot, f, p.enc.Config())
		}
		return p, nil
	}

	// A tampered config is sized against its own weights before it is built.
	if err := checkParams(snap.Config, p.enc, snap.Params); err != nil {
		return nil, err
	}

	// Rebuild the architecture, then overwrite the weights. checkParams
	// counted by arithmetic; the built tensors have the last word.
	p.build(simrand.New(snap.Config.Seed))
	params := p.allParams()
	for i, t := range params {
		if len(params) != len(snap.Params) || len(t.Data) != len(snap.Params[i]) {
			return nil, fmt.Errorf("%w: tensor %d of %d: built architecture disagrees with the %d tensors checkParams passed",
				ErrCorruptSnapshot, i, len(params), len(snap.Params))
		}
		copy(t.Data, snap.Params[i])
	}
	return p, nil
}
