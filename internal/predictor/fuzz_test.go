package predictor

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"loam/internal/atomicio"
	"loam/internal/encoding"
)

// addSnapshotSeeds seeds f with the Save bytes of a tiny TCN and a tiny XGBoost
// predictor over a narrow encoder (kilobytes, so mutations land in structure,
// not in pages of weights), as cut returns them, plus eight truncations and
// sixteen single-bit flips of each, spread evenly.
func addSnapshotSeeds(f *testing.F, cut func(snapshot []byte) []byte) {
	enc := encoding.NewEncoder(encoding.Config{Segments: 1, SegmentDim: 2, MaxPartitions: 64, MaxColumns: 8})
	samples, _ := synthetic(12, 41)
	for _, kind := range []Kind{KindTCN, KindXGBoost} {
		cfg := tinyConfig(kind)
		cfg.Hidden, cfg.EmbDim, cfg.Layers, cfg.Epochs = 3, 2, 1, 1
		p, err := Train(cfg, enc, samples, nil)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			f.Fatal(err)
		}
		data := cut(buf.Bytes())
		f.Add(data)
		for i := 0; i < 8; i++ {
			f.Add(data[:len(data)*i/8])
		}
		for i := 0; i < 16; i++ {
			mut := bytes.Clone(data)
			mut[len(mut)*i/16] ^= 1 << (i % 8)
			f.Add(mut)
		}
	}
}

// FuzzLoad feeds Load raw bytes. It never panics, every failure is classified
// (ErrCorruptSnapshot, which integrity failures also wrap), and it succeeds
// only on bytes that carry the magic and exactly one frame DecodeFrame
// accepts — statable since the checksum-free v1 reader was retired.
func FuzzLoad(f *testing.F) {
	f.Add([]byte(`{"version":1}`))
	addSnapshotSeeds(f, func(snapshot []byte) []byte { return snapshot })
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := Load(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("unclassified Load error: %v", err)
			}
			return
		}
		if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
			t.Fatal("Load accepted bytes without the magic")
		}
		if _, rest, err := atomicio.DecodeFrame(data[len(snapshotMagic):]); err != nil || len(rest) != 0 {
			t.Fatalf("Load accepted a frame DecodeFrame does not: err %v, %d trailing bytes", err, len(rest))
		}
	})
}

// FuzzLoadPayload fuzzes the JSON inside a correctly checksummed frame, so the
// structural validation behind the integrity check is what runs. Load never
// panics, and a snapshot it accepts is a model that works: PredictCost returns
// (no index out of range, no cycle in a booster tree), Save→Load reproduces it.
func FuzzLoadPayload(f *testing.F) {
	addSnapshotSeeds(f, func(snapshot []byte) []byte { return framedPayload(f, snapshot) })
	samples, _ := synthetic(1, 42)
	pl := samples[0].Plan
	f.Fuzz(func(t *testing.T, payload []byte) {
		p, err := Load(bytes.NewReader(append([]byte(snapshotMagic), atomicio.EncodeFrame(payload)...)))
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) || errors.Is(err, ErrSnapshotIntegrity) {
				t.Fatalf("well-framed payload: want a structural ErrCorruptSnapshot, got %v", err)
			}
			return
		}
		envs := encoding.FixedEnv(p.TrainMeanEnv())
		want := p.PredictCost(pl, envs)
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("re-save of a loaded snapshot: %v", err)
		}
		q, err := Load(&buf)
		if err != nil {
			t.Fatalf("re-load of a re-saved snapshot: %v", err)
		}
		if got := q.PredictCost(pl, envs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Save→Load changed a prediction: %v vs %v", got, want)
		}
	})
}
