package experiments

import (
	"fmt"
	"os"
	"testing"

	"loam/internal/predictor"
)

// TestCalibration is a tuning harness (skipped in -short): it trains LOAM
// and LOAM-NA on selected projects and reports selection quality in detail.
func TestCalibration(t *testing.T) {
	if os.Getenv("LOAM_CALIB") == "" {
		t.Skip("set LOAM_CALIB=1 to run the calibration harness")
	}
	cfg := Default()
	cfg.Log = os.Stderr
	if v := os.Getenv("LOAM_CALIB_EPOCHS"); v != "" {
		fmt.Sscanf(v, "%d", &cfg.Epochs)
	}
	env := NewEnv(cfg)
	projects := []string{"project2", "project1", "project5"}
	if os.Getenv("LOAM_CALIB_ONE") != "" {
		projects = projects[:1]
	}
	for _, name := range projects {
		pe := env.Eval(name)
		pr := env.evalProject(name)
		fmt.Fprintf(os.Stderr, "== %s native=%.0f best=%.0f oracle=%.0f D(Md)=%.1f%%\n",
			name, pr.Native, pr.BestAchievable, pr.Oracle, pr.ImprovementSpace*100)

		for _, v := range []Variant{LOAMVariant(), {Adapt: false, UseEnv: true}} {
			dep, err := env.Deployment(name, v)
			if err != nil {
				t.Fatal(err)
			}
			pick := pickWith(dep.Predictor(), predictor.StrategyMeanEnv)
			m := evalMethod(pe, v.Label(), pick)
			// Selection quality: how often the pick is the empirical best /
			// within 5% of best; distribution of chosen indices.
			hist := map[int]int{}
			exact, close := 0, 0
			for qi, idx := range m.ChosenIdx {
				hist[idx]++
				q := &pe.Queries[qi]
				best, bi := q.Means[0], 0
				for ci, mean := range q.Means {
					if mean < best {
						best, bi = mean, ci
					}
				}
				if idx == bi {
					exact++
				}
				if q.Means[idx] <= best*1.05 {
					close++
				}
			}
			fmt.Fprintf(os.Stderr, "  %-8s avg=%.0f gain=%.1f%% exactBest=%d/%d within5%%=%d picks=%v\n",
				m.Name, m.AvgCost, (1-m.AvgCost/pr.Native)*100, exact, len(m.ChosenIdx), close, hist)
		}
	}
}
