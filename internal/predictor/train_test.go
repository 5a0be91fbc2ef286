package predictor

import (
	"bytes"
	"math"
	"testing"

	"loam/internal/cluster"
	"loam/internal/encoding"
	"loam/internal/nn"
	"loam/internal/plan"
	"loam/internal/simrand"
)

// embed is the TCN's per-plan autograd forward — the training path before
// the forest trainer, and the reference forward every serving path and the
// forest trainer are held to, bit for bit.
func (b *tcnBackbone) embed(p *plan.Plan, envs encoding.EnvSource) *nn.Tensor {
	var ft encoding.FlatTree
	b.enc.EncodeTreeFlatInto(&ft, p, envs)
	x := nn.FromData(ft.Len(), b.enc.Dim(), ft.Feats)
	for _, l := range b.layers {
		x = l.Forward(x, ft.Self, ft.Left, ft.Right)
	}
	pooled := nn.ConcatCols(nn.MeanRows(x), nn.MaxRows(x), nn.SumRows(x, 1.0/16))
	return nn.ReLU(b.proj.Forward(pooled))
}

// trainAutograd is TrainInstrumented with the TCN embedded plan by plan
// through its autograd graph (PerPlan) — the path the neural baselines train
// on, and the oracle of the forest path.
func trainAutograd(cfg Config, enc *encoding.Encoder, train []Sample, cands []*plan.Plan) *Predictor {
	p := &Predictor{Head: Head{cfg: cfg}, enc: enc, encCfg: enc.Config()}
	p.build(simrand.New(cfg.Seed))
	h, err := TrainHead(cfg, train, cands, PerPlan(p.bb.Params(), p.bb.embed), nil)
	if err != nil {
		panic(err)
	}
	p.Head = h
	return p
}

// forestTrainingSet is a training set built to exercise what the forest path
// could get wrong: n-ary roots the encoder folds, explorer-style plans sharing
// subtrees by pointer as defaults under per-sample RecordEnvs (so one node
// pointer is two samples' under two environments), a one-node plan, and a
// three-plan domain set of which every minibatch draws some plan twice.
func forestTrainingSet() ([]Sample, []*plan.Plan) {
	samples, _ := synthetic(40, 31)
	shared := explorerStyleCands()
	for i, c := range shared {
		seen := map[*plan.Node]cluster.Metrics{}
		c.Root.Walk(func(n *plan.Node) {
			if len(seen)%4 != 3 { // some nodes unobserved
				seen[n] = cluster.Metrics{CPUIdle: 0.2 + 0.05*float64(i), IOWait: float64(len(seen)%5) / 10, Load5: float64(i % 3), MemUsage: 0.3}
			}
		})
		samples = append(samples, Sample{
			Plan: c,
			Envs: encoding.RecordEnv(func(n *plan.Node) (cluster.Metrics, bool) { m, ok := seen[n]; return m, ok }),
			Cost: 300 + 170*float64(i),
		})
	}
	samples = append(samples, Sample{Plan: scanPlan("small"), Envs: encoding.FixedEnv([4]float64{0.5, 0.1, 0.2, 0.3}), Cost: 90})
	return samples, []*plan.Plan{shared[0], shared[7], scanPlan("mid")}
}

// TestTrainTCNForestMatchesAutograd pins the forest training path to the
// per-plan autograd one it replaced: over three seeds, with and without the
// domain adaptation and the environment features, the trained predictor's
// Save bytes — every weight, Float64bits — and its final losses are equal.
func TestTrainTCNForestMatchesAutograd(t *testing.T) {
	enc := encoding.NewEncoder(encoding.DefaultConfig())
	samples, domain := forestTrainingSet()
	shared := samples[len(samples)-13].Plan.Root.Children[0].Children[1]
	if samples[len(samples)-3].Plan.Root.Children[0].Children[1] != shared {
		t.Fatal("the explorer-style defaults no longer share a node pointer")
	}
	for _, seed := range []uint64{7, 11, 20261017} {
		for _, adapt := range []bool{true, false} {
			for _, useEnv := range []bool{true, false} {
				cfg := tinyConfig(KindTCN)
				cfg.Epochs, cfg.Seed, cfg.Adapt, cfg.UseEnv = 4, seed, adapt, useEnv
				got, err := Train(cfg, enc, samples, domain)
				if err != nil {
					t.Fatal(err)
				}
				want := trainAutograd(cfg, enc, samples, domain)
				gm, wm := got.Metrics(), want.Metrics()
				if math.Float64bits(gm.FinalCostLoss) != math.Float64bits(wm.FinalCostLoss) ||
					math.Float64bits(gm.FinalDomLoss) != math.Float64bits(wm.FinalDomLoss) {
					t.Fatalf("seed %d adapt %v env %v: final losses %v/%v, autograd %v/%v",
						seed, adapt, useEnv, gm.FinalCostLoss, gm.FinalDomLoss, wm.FinalCostLoss, wm.FinalDomLoss)
				}
				if adapt && gm.FinalDomLoss == 0 {
					t.Fatalf("seed %d: the domain head never trained", seed)
				}
				got.metrics, want.metrics = Metrics{}, Metrics{}
				var gb, wb bytes.Buffer
				if err := got.Save(&gb); err != nil {
					t.Fatal(err)
				}
				if err := want.Save(&wb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
					t.Fatalf("seed %d adapt %v env %v: the forest path trained other weights than autograd", seed, adapt, useEnv)
				}
			}
		}
	}
}
