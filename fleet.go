package loam

import (
	"context"
	"sort"
	"sync"
)

// FleetResult is one project's outcome from DeployAllCtx.
type FleetResult struct {
	Project    string
	Deployment *Deployment
	Err        error
}

// DeployAllCtx trains a deployment for every attached project — or, with
// WithSelector, for the top-N projects the §6 two-stage selection pipeline
// picks — running up to WithParallelism trainings concurrently (default
// sequential). Training reads only per-project state (history, statistics
// views) and never executes plans, so projects train independently; the
// shared cluster is untouched.
//
// Results are returned in project order (selection order under WithSelector):
// one FleetResult per project, failures carried per-entry. The returned error
// is nil when every project deployed, and otherwise a FleetErrors aggregating
// the failures by index and project name.
//
// Cancelling ctx stops the fleet promptly: trainings already running finish
// (training is not interruptible mid-epoch), projects not yet started are
// abandoned with Err wrapping ctx.Err(), so errors.Is(err, context.Canceled)
// reports the cancellation on the aggregate.
//
// Deploy options apply to every project's deployment. Note that sharing one
// registry via WithMetrics across parallel trainings keeps counters and
// histograms exact but makes last-write-wins training gauges depend on
// completion order (see WithMetrics).
func (s *Simulation) DeployAllCtx(ctx context.Context, cfg DeployConfig, opts ...DeployOption) ([]FleetResult, error) {
	o := resolveDeployOptions(opts)
	projects := s.Projects
	if o.selector {
		projects = selectProjects(projects, o.selectorPass, o.selectorScores, o.selectorTopN)
	}
	results := make([]FleetResult, len(projects))
	if err := ctx.Err(); err != nil {
		for i, ps := range projects {
			results[i] = FleetResult{Project: ps.Config.Name, Err: err}
		}
		return results, fleetError(results)
	}

	parallelism := o.parallelism
	if parallelism < 1 {
		parallelism = 1
	}
	if parallelism > len(projects) {
		parallelism = len(projects)
	}

	// Workers never write results directly: each outcome travels the out
	// channel and the feeding goroutine's collector is the only writer into
	// the results slice, which makes the ownership transfer explicit.
	type item struct {
		i   int
		res FleetResult
	}
	jobs := make(chan int)
	out := make(chan item)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				ps := projects[i]
				if err := ctx.Err(); err != nil {
					// Dispatched but not started when the fleet was
					// cancelled: report the cancellation, skip the training.
					out <- item{i, FleetResult{Project: ps.Config.Name, Err: err}}
					continue
				}
				// ps.Deploy already wraps failures as "deploy <name>: …";
				// wrapping again here would double the prefix.
				dep, err := ps.Deploy(cfg, opts...)
				out <- item{i, FleetResult{Project: ps.Config.Name, Deployment: dep, Err: err}}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	cut := len(projects)
	go func() {
		defer close(jobs)
		for i := range projects {
			select {
			case jobs <- i:
			case <-ctx.Done():
				// Indices >= i were never dispatched; the collector fills
				// them after the workers drain.
				cut = i
				return
			}
		}
	}()

	for it := range out {
		results[it.i] = it.res
	}
	for i := cut; i < len(projects); i++ {
		results[i] = FleetResult{Project: projects[i].Config.Name, Err: ctx.Err()}
	}
	return results, fleetError(results)
}

// selectProjects runs the §6 two-stage selection: filter on the pass
// predicate, rank by score (projects absent from scores rank last — the zero
// value would otherwise let an unscored project tie at 0.0 and outrank a
// negatively-scored survivor), keep the top N.
func selectProjects(projects []*ProjectSim, pass func(*ProjectSim) bool, scores map[string]float64, topN int) []*ProjectSim {
	type scored struct {
		ps      *ProjectSim
		score   float64
		present bool
	}
	var survivors []scored
	for _, ps := range projects {
		if pass != nil && !pass(ps) {
			continue
		}
		sc, ok := scores[ps.Config.Name]
		survivors = append(survivors, scored{ps: ps, score: sc, present: ok})
	}
	sort.Slice(survivors, func(i, j int) bool {
		if survivors[i].present != survivors[j].present {
			return survivors[i].present
		}
		if survivors[i].score != survivors[j].score {
			return survivors[i].score > survivors[j].score
		}
		return survivors[i].ps.Config.Name < survivors[j].ps.Config.Name
	})
	if topN > 0 && len(survivors) > topN {
		survivors = survivors[:topN]
	}
	out := make([]*ProjectSim, len(survivors))
	for i, sv := range survivors {
		out[i] = sv.ps
	}
	return out
}
