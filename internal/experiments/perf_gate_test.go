package experiments

import (
	"strings"
	"testing"
)

// gatePass is a PerfResult comfortably inside the baseline thresholds; each
// case below perturbs one dimension.
func gatePass() *PerfResult {
	r := &PerfResult{CalibNs: 1000}
	r.PredictCost.NsPerOp = 50000
	r.Select.UncachedQPS = 4000
	r.Select.WarmQPS = 200000
	r.Select.Identical = true
	return r
}

func gateBase() *PerfBaseline {
	return &PerfBaseline{CalibNs: 1000, PredictNsPerOp: 60000, WarmQPS: 80000}
}

// TestCompareBaseline pins the trend gate's semantics: the 10% bands, the
// calibration scaling with its [0.25, 4] clamp, and the identical-choices
// bit, each reported with a recognizable message.
func TestCompareBaseline(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(r *PerfResult, b *PerfBaseline)
		want   string // "" = gate passes
	}{
		{"healthy", func(r *PerfResult, b *PerfBaseline) {}, ""},
		{"predict regression", func(r *PerfResult, b *PerfBaseline) {
			r.PredictCost.NsPerOp = 67000 // limit is 1.1·60000 = 66000
		}, "PredictCost"},
		{"warm regression", func(r *PerfResult, b *PerfBaseline) {
			r.Select.WarmQPS = 71000 // floor is 0.9·80000 = 72000
		}, "warm select"},
		{"slow machine scales thresholds", func(r *PerfResult, b *PerfBaseline) {
			// 2× slower machine: raw numbers that would fail unscaled pass.
			r.CalibNs = 2000
			r.PredictCost.NsPerOp = 110000 // < 1.1·60000·2
			r.Select.WarmQPS = 40000       // > 0.9·80000/2
		}, ""},
		{"scale clamped at 4", func(r *PerfResult, b *PerfBaseline) {
			// A 100× calib ratio must not excuse a 10× latency regression.
			r.CalibNs = 100000
			r.PredictCost.NsPerOp = 600000 // > 1.1·60000·4
		}, "PredictCost"},
		{"scale clamped at 0.25", func(r *PerfResult, b *PerfBaseline) {
			// A 100× faster machine is only asked for 4× the numbers.
			r.CalibNs = 10
			r.PredictCost.NsPerOp = 16000 // < 1.1·60000·0.25 = 16500
			r.Select.WarmQPS = 290000     // > 0.9·80000/0.25 = 288000
		}, ""},
		{"cached choices diverge", func(r *PerfResult, b *PerfBaseline) {
			r.Select.Identical = false
		}, "warm cached scoring"},
		{"zero calib means unscaled", func(r *PerfResult, b *PerfBaseline) {
			b.CalibNs = 0
			r.PredictCost.NsPerOp = 67000
		}, "PredictCost"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, b := gatePass(), gateBase()
			tc.mutate(r, b)
			bad := r.CompareBaseline(b)
			if tc.want == "" {
				if len(bad) != 0 {
					t.Fatalf("unexpected violations: %v", bad)
				}
				return
			}
			if len(bad) != 1 || !strings.Contains(bad[0], tc.want) {
				t.Fatalf("violations %v, want one containing %q", bad, tc.want)
			}
		})
	}
}

// TestBaselineSpeedup: the reported speedup is warm q/s relative to the
// baseline in baseline-machine units — a 2× slower machine matching the
// baseline's raw q/s is really 2× faster.
func TestBaselineSpeedup(t *testing.T) {
	r, b := gatePass(), gateBase()
	if got := r.BaselineSpeedup(b); got != 200000.0/80000 {
		t.Fatalf("speedup = %v, want 2.5", got)
	}
	r.CalibNs = 2000 // twice as slow as the baseline machine
	if got := r.BaselineSpeedup(b); got != 2*200000.0/80000 {
		t.Fatalf("scaled speedup = %v, want 5", got)
	}
	if got := r.BaselineSpeedup(&PerfBaseline{}); got != 0 {
		t.Fatalf("speedup against empty baseline = %v, want 0", got)
	}
}

// TestCalibrateMachine: the calibration is a positive, finite wall-time
// measurement.
func TestCalibrateMachine(t *testing.T) {
	ns := CalibrateMachine()
	if !(ns > 0) || ns > 1e12 {
		t.Fatalf("calibration %v ns outside sane range", ns)
	}
}
