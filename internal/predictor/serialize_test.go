package predictor

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"loam/internal/atomicio"
	"loam/internal/encoding"
	"loam/internal/plan"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, cands := synthetic(100, 21)
	orig, err := Train(tinyConfig(KindTCN), enc, samples, cands)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	envs := encoding.FixedEnv(orig.TrainMeanEnv())
	for i := 0; i < 10; i++ {
		want := orig.PredictCost(samples[i].Plan, envs)
		got := loaded.PredictCost(samples[i].Plan, envs)
		if want != got {
			t.Fatalf("prediction changed after round trip: %g vs %g", want, got)
		}
	}
	if loaded.TrainMeanEnv() != orig.TrainMeanEnv() {
		t.Fatal("mean env lost")
	}
	if loaded.Metrics().ModelBytes != orig.Metrics().ModelBytes {
		t.Fatal("metrics lost")
	}
}

// TestLoadSnapshotOfEarlierBuild pins the format across builds, which the
// durable store's restore depends on: testdata/tcn_tiny.snap, a tiny TCN an
// earlier build trained (synthetic(24, 46), Hidden 4, EmbDim 3, two layers,
// two epochs, model version 3) and saved, still loads, re-saves to the same
// bytes, and predicts what that build predicted, bit for bit.
func TestLoadSnapshotOfEarlierBuild(t *testing.T) {
	data, err := os.ReadFile("testdata/tcn_tiny.snap")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var resaved bytes.Buffer
	if err := p.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), data) {
		t.Fatal("re-save differs from the snapshot loaded")
	}
	if p.ModelVersion() != 3 {
		t.Fatalf("model version %d, want 3", p.ModelVersion())
	}
	samples, _ := synthetic(24, 46)
	envs := encoding.FixedEnv(p.TrainMeanEnv())
	for i, want := range [][2]uint64{
		{0x40b11db51f8de8fb, 0x40af45b294f9da58},
		{0x40afb2e2fd6b3efc, 0x40aec0dc5eccc3f3},
		{0x40afbd2d037dcc40, 0x40aec0dc5eccc3f3},
		{0x40b1787a9fcfecb2, 0x40af09f2666172c1},
	} {
		pl := samples[i].Plan
		got := [2]uint64{math.Float64bits(p.PredictCost(pl, envs)), math.Float64bits(p.PredictCost(pl, encoding.NoEnv()))}
		if got != want {
			t.Fatalf("plan %d: estimates %#x, want %#x (mean env, no env)", i, got, want)
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
	snap := savedSnapshot(t)
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

// savedSnapshot trains a tiny model and returns its decoded snapshot payload
// for tampering.
func savedSnapshot(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, _ := synthetic(40, 23)
	orig, err := Train(tinyConfig(KindTCN), enc, samples, nil)
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
	snap := savedSnapshot(t)
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
	snap := savedSnapshot(t)
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

// TestLoadRejectsKindMismatch: a well-framed snapshot whose config names a
// kind other than the TCN — the baselines' former kinds 2 to 4 — fails with
// ErrCorruptSnapshot, as structure, not integrity, and builds nothing.
func TestLoadRejectsKindMismatch(t *testing.T) {
	for kind := Kind(2); kind <= 4; kind++ {
		snap := savedSnapshot(t)
		tamperSnapshot(t, snap, func(c *Config, _ *encoding.Config) { c.Kind = kind })
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		p, lerr := Load(bytes.NewReader(append([]byte(snapshotMagic), atomicio.EncodeFrame(data)...)))
		if p != nil || !errors.Is(lerr, ErrCorruptSnapshot) || errors.Is(lerr, ErrSnapshotIntegrity) {
			t.Fatalf("kind %d: Load returned %v, %v; want nothing and a structural ErrCorruptSnapshot", kind, p, lerr)
		}
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
	tampers := append(layers,
		func(c *Config, _ *encoding.Config) { c.Layers = 1 << 40 },
		func(_ *Config, e *encoding.Config) { e.Segments = 1 << 40 },
		func(_ *Config, e *encoding.Config) { e.SegmentDim = 1 << 40 },
		// A product that wraps to zero must not pass as a narrow encoder.
		func(_ *Config, e *encoding.Config) { e.Segments, e.SegmentDim = 1<<32, 1<<32 },
		func(_ *Config, e *encoding.Config) { e.SegmentDim++ },
	)
	for i, tamper := range tampers {
		snap := savedSnapshot(t)
		tamperSnapshot(t, snap, tamper)
		lerr := loadSnapshot(t, snap)
		if !errors.Is(lerr, ErrCorruptSnapshot) || errors.Is(lerr, ErrSnapshotIntegrity) {
			t.Fatalf("tamper %d (config %s, encoder %s): want ErrCorruptSnapshot and not integrity, got %v", i, snap["config"], snap["encoder"], lerr)
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
		wantBest, want, err := orig.SelectPlanKeyed(cands, envs, encoding.EnvKey{})
		if err != nil {
			t.Fatal(err)
		}
		gotBest, got, err := loaded.SelectPlanKeyed(cands, envs, encoding.EnvKey{})
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
