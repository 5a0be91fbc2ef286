package predictor

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"loam/internal/atomicio"
	"loam/internal/encoding"
	"loam/internal/plan"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, cands := synthetic(100, 21)
	for _, kind := range []Kind{KindTCN, KindTransformer, KindGCN, KindXGBoost} {
		orig, err := Train(tinyConfig(kind), enc, samples, cands)
		if err != nil {
			t.Fatalf("%v train: %v", kind, err)
		}
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatalf("%v save: %v", kind, err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%v load: %v", kind, err)
		}
		envs := encoding.FixedEnv(orig.TrainMeanEnv())
		for i := 0; i < 10; i++ {
			want := orig.PredictCost(samples[i].Plan, envs)
			got := loaded.PredictCost(samples[i].Plan, envs)
			if want != got {
				t.Fatalf("%v: prediction changed after round trip: %g vs %g", kind, want, got)
			}
		}
		if loaded.TrainMeanEnv() != orig.TrainMeanEnv() {
			t.Fatalf("%v: mean env lost", kind)
		}
		if loaded.Metrics().ModelBytes != orig.Metrics().ModelBytes {
			t.Fatalf("%v: metrics lost", kind)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage should fail")
	}
	if _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("wrong version should fail")
	}
}

func TestLoadRejectsTamperedParams(t *testing.T) {
	snap := savedSnapshot(t, KindTCN)
	// Prepend a bogus one-element tensor: tensor count no longer matches the
	// architecture.
	tampered := strings.Replace(string(snap["params"]), `[[`, `[[9],[`, 1)
	snap["params"] = json.RawMessage(tampered)
	if err := loadSnapshot(t, snap); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("mismatched tensor shapes: want ErrCorruptSnapshot, got %v", err)
	}
}

// framedPayload splits a Save output into its JSON payload, failing the test
// on any framing error.
func framedPayload(t testing.TB, framed []byte) []byte {
	t.Helper()
	if !bytes.HasPrefix(framed, []byte(snapshotMagic)) {
		t.Fatalf("snapshot missing magic header")
	}
	payload, rest, err := atomicio.DecodeFrame(framed[len(snapshotMagic):])
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode snapshot frame: err=%v rest=%d", err, len(rest))
	}
	return payload
}

// savedSnapshot trains a tiny model of the given kind and returns its
// decoded snapshot payload for tampering.
func savedSnapshot(t *testing.T, kind Kind) map[string]json.RawMessage {
	t.Helper()
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(40, 23)
	orig, err := Train(tinyConfig(kind), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(framedPayload(t, buf.Bytes()), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// loadSnapshot re-frames a (tampered) snapshot map and runs Load on it. The
// frame checksum is recomputed over the tampered payload, so structural
// validation — not the integrity check — is what these tests exercise.
func loadSnapshot(t *testing.T, snap map[string]json.RawMessage) error {
	t.Helper()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	framed := append([]byte(snapshotMagic), atomicio.EncodeFrame(data)...)
	_, lerr := Load(bytes.NewReader(framed))
	return lerr
}

// editParams rewrites a decoded snapshot's tensor list.
func editParams(t *testing.T, snap map[string]json.RawMessage, edit func([][]float64) [][]float64) {
	t.Helper()
	var params [][]float64
	if err := json.Unmarshal(snap["params"], &params); err != nil {
		t.Fatal(err)
	}
	snap["params"], _ = json.Marshal(edit(params))
}

func TestLoadRejectsTruncatedParamList(t *testing.T) {
	snap := savedSnapshot(t, KindTCN)
	editParams(t, snap, func(p [][]float64) [][]float64 { return p[:len(p)-1] })
	lerr := loadSnapshot(t, snap)
	if lerr == nil {
		t.Fatal("truncated param list should fail")
	}
	if !errors.Is(lerr, ErrCorruptSnapshot) {
		t.Fatalf("want ErrCorruptSnapshot, got %v", lerr)
	}
}

func TestLoadRejectsWrongTensorShape(t *testing.T) {
	snap := savedSnapshot(t, KindTCN)
	// Same tensor count, one tensor shortened: per-tensor validation must
	// catch it before any weight is copied.
	editParams(t, snap, func(p [][]float64) [][]float64 {
		p[len(p)-1] = p[len(p)-1][:len(p[len(p)-1])-1]
		return p
	})
	lerr := loadSnapshot(t, snap)
	if lerr == nil {
		t.Fatal("reshaped tensor should fail")
	}
	if !errors.Is(lerr, ErrCorruptSnapshot) {
		t.Fatalf("want ErrCorruptSnapshot, got %v", lerr)
	}
}

// TestLoadRejectsKindMismatch crosses the two snapshot payload shapes: a
// neural snapshot whose config claims XGBoost (no booster present) and an
// XGBoost snapshot whose config claims a neural kind (no params present).
// Both must fail with ErrCorruptSnapshot instead of panicking or building a
// model with garbage weights.
func TestLoadRejectsKindMismatch(t *testing.T) {
	neural := savedSnapshot(t, KindTCN)
	tamperSnapshot(t, neural, func(c *Config, _ *encoding.Config) { c.Kind = KindXGBoost })
	if err := loadSnapshot(t, neural); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("neural snapshot relabeled xgboost: want ErrCorruptSnapshot, got %v", err)
	}

	booster := savedSnapshot(t, KindXGBoost)
	tamperSnapshot(t, booster, func(c *Config, _ *encoding.Config) { c.Kind = KindTCN })
	if err := loadSnapshot(t, booster); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("xgboost snapshot relabeled neural: want ErrCorruptSnapshot, got %v", err)
	}
}

// tamperSnapshot rewrites a decoded snapshot's predictor and encoder configs.
func tamperSnapshot(t *testing.T, snap map[string]json.RawMessage, tamper func(*Config, *encoding.Config)) {
	t.Helper()
	var cfg Config
	var ecfg encoding.Config
	if err := json.Unmarshal(snap["config"], &cfg); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(snap["encoder"], &ecfg); err != nil {
		t.Fatal(err)
	}
	tamper(&cfg, &ecfg)
	snap["config"], _ = json.Marshal(cfg)
	snap["encoder"], _ = json.Marshal(ecfg)
}

// TestLoadRejectsBadArchitectureDims pins the pre-rebuild validation: a
// correctly checksummed snapshot whose config does not need exactly the
// weights it carries fails as structural corruption, not integrity, before
// any layer is allocated. Only non-positive sizes used to be caught: Hidden
// 1<<40 panicked in nn.New, an oversized encoder at the first PredictCost.
func TestLoadRejectsBadArchitectureDims(t *testing.T) {
	type tamper = func(*Config, *encoding.Config)
	layers := []tamper{
		func(c *Config, _ *encoding.Config) { c.Hidden = 0 },
		func(c *Config, _ *encoding.Config) { c.Layers = -1 },
		func(c *Config, _ *encoding.Config) { c.EmbDim = 0 },
		func(c *Config, _ *encoding.Config) { c.Hidden = 1 << 40 },
		func(c *Config, _ *encoding.Config) { c.EmbDim = 1 << 40 },
		func(c *Config, _ *encoding.Config) { c.Hidden++ },
	}
	// The Transformer has a fixed two blocks, so only the stacked kinds can
	// be asked for more layers than tensors.
	stacked := append([]tamper{func(c *Config, _ *encoding.Config) { c.Layers = 1 << 40 }}, layers...)
	encoder := []tamper{
		func(_ *Config, e *encoding.Config) { e.Segments = 1 << 40 },
		func(_ *Config, e *encoding.Config) { e.SegmentDim = 1 << 40 },
		// A product that wraps to zero must not pass as a narrow encoder.
		func(_ *Config, e *encoding.Config) { e.Segments, e.SegmentDim = 1<<32, 1<<32 },
		func(_ *Config, e *encoding.Config) { e.SegmentDim++ },
	}
	for kind, tampers := range map[Kind][]tamper{KindTCN: append(stacked, encoder...), KindGCN: stacked, KindTransformer: layers, KindXGBoost: encoder} {
		for i, tamper := range tampers {
			snap := savedSnapshot(t, kind)
			tamperSnapshot(t, snap, tamper)
			lerr := loadSnapshot(t, snap)
			if !errors.Is(lerr, ErrCorruptSnapshot) || errors.Is(lerr, ErrSnapshotIntegrity) {
				t.Fatalf("%v tamper %d (config %s, encoder %s): want ErrCorruptSnapshot and not integrity, got %v", kind, i, snap["config"], snap["encoder"], lerr)
			}
		}
	}
}

// TestLoadRejectsMalformedBooster: a booster tree predict cannot walk used to
// load cleanly, then panic (empty tree, child out of range, negative feature)
// or hang (a child pointing back at its parent) inside the first PredictCost,
// on the guard's scoring goroutine. Load rejects each as structural corruption.
func TestLoadRejectsMalformedBooster(t *testing.T) {
	for name, tree := range map[string]string{
		"empty tree":         `[]`,
		"child out of range": `[{"f":0,"t":0.5,"l":1,"r":7},{"leaf":true},{"leaf":true}]`,
		"child is parent":    `[{"f":0,"t":0.5,"l":0,"r":1},{"leaf":true}]`,
		"child before node":  `[{"leaf":true},{"f":0,"t":0.5,"l":0,"r":2},{"leaf":true}]`,
		"negative feature":   `[{"f":-1,"t":0.5,"l":1,"r":2},{"leaf":true},{"leaf":true}]`,
	} {
		snap := savedSnapshot(t, KindXGBoost)
		var booster map[string]json.RawMessage
		if err := json.Unmarshal(snap["xgb"], &booster); err != nil {
			t.Fatal(err)
		}
		booster["trees"] = json.RawMessage(`[` + tree + `]`)
		snap["xgb"], _ = json.Marshal(booster)
		lerr := loadSnapshot(t, snap)
		if !errors.Is(lerr, ErrCorruptSnapshot) || errors.Is(lerr, ErrSnapshotIntegrity) {
			t.Fatalf("%s: want ErrCorruptSnapshot and not integrity, got %v", name, lerr)
		}
	}
}

// TestLoadIgnoresRemovedScoringKeys is the snapshot back-compat contract for
// the removed quantized / parallel scoring modes: a snapshot written when they
// existed carries "scoring" and "quant" objects; it must still load, serve
// exactly the f64 choices and estimates of the same model without the keys,
// and re-save without them. The frame checksum still guards the injected
// bytes.
func TestLoadIgnoresRemovedScoringKeys(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(60, 39)
	orig, err := Train(tinyConfig(KindTCN), enc, samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := orig.Save(&saved); err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(framedPayload(t, saved.Bytes()), &snap); err != nil {
		t.Fatal(err)
	}
	snap["scoring"] = json.RawMessage(`{"parallelThreshold":9,"quantized":true}`)
	snap["quant"] = json.RawMessage(`{"version":1,"sw":[0.5],"colAbs1":[3]}`)
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	framed := append([]byte(snapshotMagic), atomicio.EncodeFrame(payload)...)

	envs := encoding.FixedEnv(orig.TrainMeanEnv())
	loaded, err := Load(bytes.NewReader(framed))
	if err != nil {
		t.Fatalf("snapshot with removed scoring keys must load, got %v", err)
	}
	for lo := 0; lo+8 <= len(samples); lo += 5 {
		cands := make([]*plan.Plan, 2+lo%7)
		for i := range cands {
			cands[i] = samples[lo+i].Plan
		}
		wantBest, want, err := orig.SelectPlan(cands, envs)
		if err != nil {
			t.Fatal(err)
		}
		gotBest, got, err := loaded.SelectPlan(cands, envs)
		if err != nil {
			t.Fatal(err)
		}
		if gotBest != wantBest {
			t.Fatalf("set %d: restored predictor chose a different plan", lo)
		}
		costsSameBits(t, "restored", want, got)
	}
	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
		var again map[string]json.RawMessage
		if err := json.Unmarshal(framedPayload(t, resaved.Bytes()), &again); err != nil {
			t.Fatal(err)
		}
		_, scoring := again["scoring"]
		_, quant := again["quant"]
		t.Fatalf("re-save differs from the key-free original (scoring key %v, quant key %v)", scoring, quant)
	}

	// Frame header: 8 length bytes, then the 8 checksum bytes.
	framed[len(snapshotMagic)+15] ^= 0x40
	if _, err := Load(bytes.NewReader(framed)); !errors.Is(err, ErrSnapshotIntegrity) {
		t.Fatalf("tampered checksum: want ErrSnapshotIntegrity, got %v", err)
	}
}
