package loam

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"loam/internal/exec"
)

func deployTiny(t *testing.T, seed uint64) *Deployment {
	t.Helper()
	sim := NewSimulation(seed, DefaultSimulationConfig())
	cfg := DefaultProjectConfig("val")
	cfg.Archetype.NumTables = 12
	cfg.Workload.NumTemplates = 6
	cfg.Workload.QueriesPerDayMean = 5
	ps := sim.AddProject(cfg)
	ps.RunDays(0, 8)
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 6
	dcfg.TestDays = 2
	dcfg.Predictor.Epochs = 3
	dcfg.DomainPlans = 8
	dep, err := ps.Deploy(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestValidateProducesGateDecision(t *testing.T) {
	dep := deployTiny(t, 41)
	vcfg := DefaultValidationConfig()
	vcfg.SampleQueries = 6
	res, err := dep.Validate(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 || res.Queries > 6 {
		t.Fatalf("validated %d queries", res.Queries)
	}
	if res.NativeCost <= 0 || res.SelectedCost <= 0 {
		t.Fatalf("costs %g / %g", res.NativeCost, res.SelectedCost)
	}
	// The gate decision must be consistent with the threshold.
	wantAccept := res.SelectedCost <= res.NativeCost*1.05
	if res.Accepted != wantAccept {
		t.Fatalf("accepted=%v inconsistent with costs %g vs %g", res.Accepted, res.SelectedCost, res.NativeCost)
	}
	// Ranker samples carry bounded features.
	if len(res.RankerSamples) == 0 {
		t.Fatal("no ranker samples derived")
	}
	for _, s := range res.RankerSamples {
		if s.Improvement < 0 {
			t.Fatalf("negative improvement %g", s.Improvement)
		}
		for _, f := range s.Features {
			if f < 0 || f > 1 {
				t.Fatalf("feature %g out of range", f)
			}
		}
	}
	if res.ImprovementSpace < 0 {
		t.Fatal("negative improvement space")
	}
}

func TestValidateRejectsEmptyTestSet(t *testing.T) {
	dep := deployTiny(t, 42)
	dep.TestSet = nil
	if _, err := dep.Validate(DefaultValidationConfig()); err == nil {
		t.Fatal("expected error for empty test set")
	}
}

// TestValidateDoesNotLogToHistory: the gate flights on a fork, so it neither
// logs to the project history nor moves the serving transcript — after
// Validate, the next ExecuteChoice returns what a same-seed twin that never
// validated returns, bit for bit, on a cluster at the same time.
func TestValidateDoesNotLogToHistory(t *testing.T) {
	dep, twin := deployTiny(t, 43), deployTiny(t, 43)
	before := dep.ProjectSim.Repo.Len()
	vcfg := DefaultValidationConfig()
	vcfg.SampleQueries = 3
	if _, err := dep.Validate(vcfg); err != nil {
		t.Fatal(err)
	}
	if dep.ProjectSim.Repo.Len() != before {
		t.Fatal("validation polluted the project history")
	}
	var recs [2]*exec.Record
	for i, d := range []*Deployment{dep, twin} {
		c, err := d.OptimizeCtx(context.Background(), d.TestSet[0].Query)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = d.ExecuteChoice(c)
	}
	got, want := recs[0], recs[1]
	if math.Float64bits(got.CPUCost) != math.Float64bits(want.CPUCost) ||
		math.Float64bits(got.LatencySec) != math.Float64bits(want.LatencySec) {
		t.Fatalf("after Validate: cost %v latency %v; twin: cost %v latency %v",
			got.CPUCost, got.LatencySec, want.CPUCost, want.LatencySec)
	}
	if g, w := dep.ProjectSim.Executor.Cluster.Now(), twin.ProjectSim.Executor.Cluster.Now(); g != w {
		t.Fatalf("cluster clock %v after Validate, twin's %v", g, w)
	}
}

// TestValidatePinned pins the gate's whole result, bit for bit, on three
// seeded deployments: a rewrite of how Validate flights its sample must leave
// every cost, gain, improvement and Ranker pair as it was.
func TestValidatePinned(t *testing.T) {
	for _, c := range []struct {
		seed          uint64
		sample        int
		maxRegression float64
		queries       int
		native        uint64
		selected      uint64
		gain          uint64
		improvement   uint64
		accepted      bool
		samples       int
		digest        uint64 // FNV-64a of every Ranker pair's float bits
	}{
		{41, 6, 0, 6, 0x40d97e5b4b048ef7, 0x40cb5c2c8395160c, 0x3fdda83c350c0dfc, 0x3feda4bf54b968b4, true, 6, 0x305973982760505e},
		{44, 0, 0, 63, 0x40b1ae5748cbc2d7, 0x40a920d38d9885b1, 0x3fd2858bed0d85fa, 0x3fdf89b4da911aeb, true, 63, 0x151aae7322ef1093},
		{45, 20, -0.1, 20, 0x40fb4861fdb5e08a, 0x40fa802c37107818, 0x3f9d5a75d15d68a0, 0x3fc9f7679c72a6c8, false, 20, 0x70245269f3419564},
	} {
		vcfg := DefaultValidationConfig()
		vcfg.SampleQueries = c.sample
		vcfg.MaxRegression = c.maxRegression
		res, err := deployTiny(t, c.seed).Validate(vcfg)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, s := range res.RankerSamples {
			for _, f := range append(slices.Clone(s.Features), s.Improvement) {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)))
			}
		}
		got := []uint64{math.Float64bits(res.NativeCost), math.Float64bits(res.SelectedCost),
			math.Float64bits(res.Gain), math.Float64bits(res.ImprovementSpace)}
		want := []uint64{c.native, c.selected, c.gain, c.improvement}
		if !slices.Equal(got, want) || res.Queries != c.queries || res.Accepted != c.accepted ||
			len(res.RankerSamples) != c.samples || h.Sum64() != c.digest {
			t.Errorf("seed %d: queries=%d native/selected/gain/improvement=%#x accepted=%v samples=%d digest=%#x; want %d %#x %v %d %#x",
				c.seed, res.Queries, got, res.Accepted, len(res.RankerSamples), h.Sum64(),
				c.queries, want, c.accepted, c.samples, c.digest)
		}
	}
}
