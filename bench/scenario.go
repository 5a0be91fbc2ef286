package main

import (
	"time"

	"loam"
	"loam/internal/cluster"
	"loam/internal/encoding"
	"loam/internal/predictor"
	"loam/internal/stats"
	"loam/internal/warehouse"
	"loam/internal/workload"
)

// This file pins the benchmark scenario. Every value is spelled out as a
// literal — never DefaultX() or experiments.Tiny() — so a later change to a
// library default cannot silently move the benchmark: the numbers a claim PR
// compares are produced by exactly these inputs on both commits.

// worldSeed fixes everything the -seed argument must NOT move: catalog,
// query templates, cluster trajectory, 8 days of native history and the
// trained model. Measured with the world seeded from -seed, recurring q/s
// ranged 825–992 across six seeds (template join widths differ), an order of
// magnitude more than the 7% regression bound; so the world is one pinned
// project pair and -seed draws only the traffic served against it (request
// order, which future days, tenant mix).
const worldSeed = 42

// explorerInvocations is how many nativeopt.Optimize calls one
// explorer.New(view).Candidates(q) makes: the default plan, six single-flag
// toggles and three cardinality scales. explorer.kept_ratio divides the
// candidates returned (TopK 5) by it.
const explorerInvocations = 10

// planCacheCapacity is the deploy-time plan-embedding cache (the library
// default). recurring's working set (≤925 plans) fits; dayroll's does not.
const planCacheCapacity = 4096

// setupRepeats is how many times a run builds its world; setup_s is the
// median. One build is 1–3 s, so a single reading moves by more than its
// bound with one scheduler hiccup.
const setupRepeats = 3

// projectSpec is one simulated MaxCompute project.
type projectSpec struct {
	name      string
	archetype warehouse.Archetype
	workload  workload.Config
	stats     stats.Policy
}

// project1 is the paper's moderate-headroom project (Table 1, project 1):
// 60 tables × 14 columns, 12 templates at ~8 instances a day (≈90
// queries/day), 2–5 table joins, mostly fresh statistics. It serves
// recurring, dayroll, loop and fleet client A.
var project1 = projectSpec{
	name: "project1",
	archetype: warehouse.Archetype{
		Name: "project1", NumTables: 60, ColumnsPerTable: 14,
		RowsLog10Mean: 4.7, RowsLog10Std: 0.9, MaxPartitions: 256,
		TempTableFrac: 0.2, GrowthMean: 1.01, SkewMax: 1.2, HorizonDays: 40,
	},
	workload: workload.Config{
		NumTemplates: 12, QueriesPerDayMean: 10, MinTables: 2, MaxTables: 5,
		FilterProb: 0.8, PushDifficultProb: 0.25, PartitionPrune: 0.4, AggProb: 0.7,
		NoiseSigmaMin: 0.03, NoiseSigmaMax: 0.25, ParamChurn: 0.6,
	},
	stats: stats.Policy{ColumnStatsProb: 0.85, FreshProb: 0.85, MaxStalenessDays: 10, NDVNoise: 0.2},
}

// project2 is the paper's high-headroom project: fewer, wider joins (3–6
// tables, so each nativeopt.Optimize is dearer) over badly degraded
// statistics. It is fleet client B's tenant, so the two fleet clients do
// different amounts of work per request.
var project2 = projectSpec{
	name: "project2",
	archetype: warehouse.Archetype{
		Name: "project2", NumTables: 30, ColumnsPerTable: 6,
		RowsLog10Mean: 6.2, RowsLog10Std: 0.7, MaxPartitions: 256,
		TempTableFrac: 0.2, GrowthMean: 1.01, SkewMax: 1.2, HorizonDays: 40,
	},
	workload: workload.Config{
		NumTemplates: 12, QueriesPerDayMean: 12, MinTables: 3, MaxTables: 6,
		FilterProb: 0.8, PushDifficultProb: 0.55, PartitionPrune: 0.4, AggProb: 0.7,
		NoiseSigmaMin: 0.03, NoiseSigmaMax: 0.25, ParamChurn: 0.6,
	},
	stats: stats.Policy{ColumnStatsProb: 0.38, FreshProb: 0.30, MaxStalenessDays: 25, NDVNoise: 0.8},
}

// clusterConfig is the library's default shared cluster: 256 machines around
// 55% load with a diurnal cycle, 24 h of 20-second samples behind
// HistoryAverage.
var clusterConfig = cluster.Config{
	Machines: 256, BaseLoad: 0.55, DiurnalAmp: 0.18, Reversion: 0.08,
	LoadNoise: 0.04, BurstProb: 0.02, BurstSize: 0.35, HistorySize: 4320,
}

// guardConfig is the library's default serving guard: a 2 s learned-path
// watchdog (so every request scores on a helper goroutine, as production
// does), the default breaker, and a 3x divergence band over 16-sample
// windows. The explorer's safety factor is also 3x, so the sentinel samples
// every learned choice but cannot trip: learned_ratio moves only through
// fleet admission.
var guardConfig = loam.GuardConfig{
	Deadline: 2 * time.Second, WindowSize: 16, TripThreshold: 8, CooldownSteps: 32,
	HalfOpenProbes: 3, DivergenceBand: 3, DivergenceWindow: 16, QuarantineWindows: 3,
}

// fleetConfig sizes the registry so the cache budget binds: each wave is 40%
// client A's tenant, 40% client B's, 20% synthetic, so Rebalance grants each
// real tenant 0.4 × 640 = 256 entries — fewer than its ≤925-plan recurring
// working set. Admission refills 0.5 a serve; the recurring lane (0.25)
// never drains the bucket, the standard lane (1) does. The bucket only
// drains while more than a third of a tenant's stream rides the standard
// lane, so the tenant remembers 4 templates against the 12 it submits:
// measured, 8 shed nothing, 6 shed 2% and 4 sheds ~14% of real routes to
// optimizeShed, enough for learned_ratio to see admission change.
var fleetConfig = loam.FleetConfig{
	Shards: 8, CacheBudget: 640, InitialGrant: 256,
	Admission: loam.FleetAdmissionConfig{
		Burst: 6, RefillPerServe: 0.5, RefillPerTick: 6,
		StandardCost: 1, RecurringCost: 0.25, RecurringTemplates: 4,
	},
}

// lifecycleConfig is the library's default continual-learning loop: 1024-entry
// feedback ring, drift = two consecutive 16-sample windows off by 2x, retrain
// on the newest 256 entries, shadow-score on 64, 32-observation probation.
var lifecycleConfig = loam.LifecycleConfig{
	FeedbackCapacity: 1024,
	Drift:            loam.DriftConfig{Window: 16, Threshold: 0.7, Windows: 2},
	RetrainWindow:    256, ShadowWindow: 64, MinFeedback: 48,
	AcceptTolerance: 0.1, Probation: 32, DomainPlans: 32,
}

// sizes are the request counts. Counts are fixed so that request totals,
// digests and allocation totals are comparable between commits; -seconds
// only cuts a run short at a unit boundary (see instance).
type sizes struct {
	// trainDays + testDays of native history feed Deploy; the test window is
	// the recurring query set.
	trainDays, testDays int
	// epochs and maxTrain keep training at ~1 s so set-up stays 2–4 s.
	epochs, maxTrain int
	// recurringPasses over the ~185 test-window queries.
	recurringPasses int
	// dayrollDays consecutive future days, ~92 queries each, one pass.
	dayrollDays int
	// fleetWaves × 2 clients × fleetWaveRoutes routes; fleetRealShare of a
	// client's routes go to its own deployment, the rest zipf over its half
	// of fleetSynthetic tenants.
	fleetWaves, fleetWaveRoutes, fleetSynthetic int
	// loopRequests optimize+execute iterations; loopChunk is the unit the
	// -seconds cut-off is checked at; loopProbes serves follow the restore.
	loopRequests, loopChunk, loopProbes int
	// probeSamples plans feed each leaf probe in a traced run.
	probeSamples int
}

// fleetRealShare is the share of a fleet client's routes that go to its own
// real tenant.
const fleetRealShare = 0.8

// fullSizes are sized to ≈20 s of timed work per workload on the reference
// 2-vCPU box at the commit that introduced the benchmark.
var fullSizes = sizes{
	trainDays: 6, testDays: 2, epochs: 3, maxTrain: 400,
	recurringPasses: 100,
	dayrollDays:     160,
	fleetWaves:      40, fleetWaveRoutes: 200, fleetSynthetic: 200,
	loopRequests: 6000, loopChunk: 100, loopProbes: 50,
	probeSamples: 64,
}

// smokeSizes run every code path of every workload in about a second each,
// for the tests under bench/ and for -smoke. The world is the same pair of
// projects; history, training and request counts shrink.
var smokeSizes = sizes{
	trainDays: 3, testDays: 1, epochs: 1, maxTrain: 120,
	recurringPasses: 3,
	dayrollDays:     3,
	fleetWaves:      3, fleetWaveRoutes: 40, fleetSynthetic: 20,
	loopRequests: 240, loopChunk: 60, loopProbes: 10,
	probeSamples: 8,
}

// deployConfig is the TCN predictor with domain adaptation on, at the
// scenario's training size.
func (sz sizes) deployConfig() loam.DeployConfig {
	return loam.DeployConfig{
		Predictor: predictor.Config{
			Kind: predictor.KindTCN, Hidden: 32, EmbDim: 24, Layers: 3,
			Epochs: sz.epochs, LR: 0.003, LRDecay: 0.99, Adapt: true, UseEnv: true,
			BatchDefault: 16, BatchCandidate: 6, Seed: worldSeed,
		},
		Encoder:   encoding.Config{Segments: 5, SegmentDim: 8, MaxPartitions: 4096, MaxColumns: 64},
		TrainDays: sz.trainDays, TestDays: sz.testDays, MaxTrain: sz.maxTrain,
		DomainPlans: 128,
	}
}
