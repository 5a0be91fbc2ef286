package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"loam"
	"loam/internal/query"
	"loam/internal/telemetry"
	"loam/internal/walltime"
)

// tally is one closed-loop client's record of its end-to-end requests. A
// client sends its next request when the previous one returns, after a
// think() of a few microseconds.
type tally struct {
	lat                        []time.Duration
	attempted, failed, learned int
	// synFailed counts fleet routes to synthetic tenants that errored; they
	// are not end-to-end requests but a failure there still fails the run.
	synFailed int
	// unit is the running FNV-64a of the current unit's choices.
	unit uint64
	// calibSeconds over calibIters kernel iterations is how fast the box ran
	// this client's think() calls during the current unit.
	calibSeconds float64
	calibIters   int
	sink         float64
	// busy is how long this client took over the current unit when that is
	// not the unit's wall time (fleet: the other client may finish later).
	busy time.Duration
}

// serve times one request through srv, records it, and thinks.
func (t *tally) serve(ctx context.Context, srv server, q *query.Query) {
	sw := walltime.Start()
	c, err := srv.optimize(ctx, q)
	t.record(c, err, sw.Elapsed())
	t.think()
}

// think is the client's pause between two requests: thinkIters runs of the
// calibration kernel. Sampled between every pair of requests it follows the
// box's speed at the time scale the box's speed actually moves on.
func (t *tally) think() {
	t.calibSeconds += calibrate(&t.sink, thinkIters)
	t.calibIters += thinkIters
}

// record checks one served request and folds it into the digest. A request
// fails when it errored, returned no plan, or — on the learned rung — chose
// a plan that is not the cheapest finite estimate among its candidates.
func (t *tally) record(c *loam.Choice, err error, d time.Duration) {
	t.lat = append(t.lat, d)
	t.attempted++
	if err != nil || c == nil || c.Chosen == nil || len(c.Candidates) == 0 {
		t.failed++
		return
	}
	if c.Origin == loam.OriginLearned {
		t.learned++
		if !learnedChoiceValid(c) {
			t.failed++
		}
	}
	t.unit = fnvWord(fnvWord(t.unit, c.Chosen.CacheFingerprint()), uint64(c.Origin))
}

func learnedChoiceValid(c *loam.Choice) bool {
	if c.ChosenIdx < 0 || c.ChosenIdx >= len(c.Candidates) || len(c.Estimates) != len(c.Candidates) {
		return false
	}
	best := c.Estimates[c.ChosenIdx]
	if math.IsNaN(best) {
		return false
	}
	for _, e := range c.Estimates {
		if e < best {
			return false
		}
	}
	return true
}

// unitStat is one timed unit.
type unitStat struct {
	wall     time.Duration
	requests int
	// speed[i] is the speed the box gave client i during the unit:
	// calibRefSeconds over the measured seconds per kernel iteration, 1.0 on
	// the quiet reference box, below 1 when the box ran slow.
	speed [2]float64
	// norm is the unit's duration at reference speed: the slower client's
	// busy time times its speed.
	norm float64
	// latEnd[i] is how many latency samples tally i held when the unit ended.
	latEnd [2]int
	digest uint64
	// mallocs is the heap objects allocated during the unit, thinkIters the
	// calibration-kernel iterations the clients ran in it.
	mallocs    uint64
	thinkIters int
}

// meter collects one run's measurements. The fleet workload's two clients
// each own a tally; every other workload uses the first.
type meter struct {
	tallies  [2]tally
	units    []unitStat
	problems []string

	timed time.Duration
	// thinkIters is how many calibration-kernel iterations the clients ran
	// inside the timed units.
	thinkIters                 int
	kernelMallocs, kernelBytes float64
	mem                        memDelta
	count                      map[string]int64 // telemetry counter deltas over the timed units

	// loop
	execs, stalls []time.Duration
	execCost      float64
	restore       time.Duration
	storeBytes    int64
	trainSeconds  float64
	ioOps         int64
	// fleet
	rebalances []time.Duration
	// traced: candidates the explorer returned and the scorer was handed
	cands, scored int64
}

func newMeter(expect int) *meter {
	m := &meter{}
	m.tallies[0].lat = make([]time.Duration, 0, expect)
	m.tallies[1].lat = make([]time.Duration, 0, expect/2)
	return m
}

func (m *meter) problemf(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// endUnit closes a unit: its digest (both clients' streams, client A first)
// and the box's speed while it ran.
func (m *meter) endUnit(wall time.Duration, requests int, mallocs uint64) {
	u := unitStat{wall: wall, requests: requests, mallocs: mallocs, digest: fnvOffset64}
	for i := range m.tallies {
		t := &m.tallies[i]
		u.digest = fnvWord(u.digest, t.unit)
		u.latEnd[i] = len(t.lat)
		if t.calibIters > 0 {
			u.speed[i] = calibRefSeconds * float64(t.calibIters) / t.calibSeconds
			busy := t.busy
			if busy == 0 {
				busy = wall
			}
			u.norm = math.Max(u.norm, busy.Seconds()*u.speed[i])
		}
		u.thinkIters += t.calibIters
		t.unit, t.calibSeconds, t.calibIters, t.busy = 0, 0, 0, 0
	}
	m.thinkIters += u.thinkIters
	m.units = append(m.units, u)
}

func (m *meter) attempted() (n int) {
	for i := range m.tallies {
		n += m.tallies[i].attempted
	}
	return n
}

func (m *meter) failed() (n int) {
	for i := range m.tallies {
		n += m.tallies[i].failed + m.tallies[i].synFailed
	}
	return n
}

func (m *meter) learned() (n int) {
	for i := range m.tallies {
		n += m.tallies[i].learned
	}
	return n
}

// totalLatency is the plain sum of every end-to-end latency.
func (m *meter) totalLatency() (sum time.Duration) {
	for i := range m.tallies {
		for _, d := range m.tallies[i].lat {
			sum += d
		}
	}
	return sum
}

// digest is the run's choices digest: FNV-64a over the unit digests.
func (m *meter) digest() uint64 {
	d := uint64(fnvOffset64)
	for _, u := range m.units {
		d = fnvWord(d, u.digest)
	}
	return d
}

// memDelta is the runtime's allocation activity, summed over the timed units.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
	liveHeap       uint64 // HeapAlloc after a forced GC, see heapSampleUnit
}

// countersOf snapshots the registry's counters by name.
func countersOf(reg *telemetry.Registry) map[string]int64 {
	snap := reg.Snapshot()
	out := make(map[string]int64, len(snap.Counters))
	for _, c := range snap.Counters {
		out[c.Name] = c.Value
	}
	return out
}

// session is one instance being measured. measure steps its sessions unit by
// unit in turn, so a traced replay and its untraced reference see the same
// machine conditions; everything process-wide (allocation counts) is
// therefore accumulated per unit, not over the whole run.
type session struct {
	in *instance
	m  *meter
	// seconds is this session's timed budget (0: the fixed unit count).
	seconds float64
	next    int

	counters0       map[string]int64
	train0          float64
	io0             int64
	cands0, scored0 int64
}

func newSession(in *instance, m *meter, seconds float64) *session {
	s := &session{in: in, m: m, seconds: seconds, counters0: countersOf(in.reg), train0: in.reg.Timer("train.time").Seconds()}
	if in.ioOps != nil {
		s.io0 = in.ioOps()
	}
	if in.stagedCounts != nil {
		s.cands0, s.scored0 = in.stagedCounts()
	}
	return s
}

// done reports whether the session has served its fixed count or — with a
// budget — reached the first unit boundary past it. Streams that replay keep
// going under a budget; streams that consume their input end with it.
func (s *session) done() bool {
	if s.next >= s.in.units && !(s.in.replay && s.seconds > 0) {
		return true
	}
	return s.seconds > 0 && s.m.timed.Seconds() >= s.seconds
}

// step serves one unit and the untimed work that follows it.
func (s *session) step(ctx context.Context) {
	m := s.m
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	served := m.attempted()
	sw := walltime.Start()
	s.in.unit(ctx, s.next, m)
	wall := sw.Elapsed()
	runtime.ReadMemStats(&after)
	m.timed += wall
	m.mem.mallocs += after.Mallocs - before.Mallocs
	m.mem.bytes += after.TotalAlloc - before.TotalAlloc
	m.mem.gcCycles += after.NumGC - before.NumGC
	m.mem.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	m.endUnit(wall, m.attempted()-served, after.Mallocs-before.Mallocs)
	s.in.after(s.next, m)
	s.next++
	if s.next == heapSampleUnit(s.in) {
		m.mem.liveHeap = liveHeap()
	}
}

// heapSampleUnit is the unit after which live_heap_mb is read: a third of
// the fixed count, which a 10 s run reaches with room to spare. Reading it
// at a fixed request count rather than at the end keeps it comparable
// between runs that a -seconds budget cuts at different lengths (loop's
// history and feedback ring, dayroll's views all grow with every request).
func heapSampleUnit(in *instance) int { return max(1, in.units/3) }

// liveHeap forces two collections — the second empties the sync.Pool victim
// caches the first one fills, whose size depends on what the last requests
// happened to be — and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// finish takes the counter deltas, the live heap, and runs the workload's
// end-of-run checks.
func (s *session) finish(ctx context.Context) {
	in, m := s.in, s.m
	m.count = map[string]int64{}
	for _, c := range in.reg.Snapshot().Counters {
		m.count[c.Name] = c.Value - s.counters0[c.Name]
	}
	m.trainSeconds = in.reg.Timer("train.time").Seconds() - s.train0
	if in.ioOps != nil {
		m.ioOps = in.ioOps() - s.io0
	}
	if in.stagedCounts != nil {
		cands, scored := in.stagedCounts()
		m.cands, m.scored = cands-s.cands0, scored-s.scored0
	}
	// The clients' think() allocations are the harness's, not the program's.
	m.kernelMallocs, m.kernelBytes = kernelAllocs()
	m.mem.mallocs -= min(m.mem.mallocs, uint64(m.kernelMallocs*float64(m.thinkIters)))
	m.mem.bytes -= min(m.mem.bytes, uint64(m.kernelBytes*float64(m.thinkIters)))
	if m.mem.liveHeap == 0 { // the run ended before the sampling unit
		m.mem.liveHeap = liveHeap()
	}
	in.finish(ctx, m)
	if f := m.failed(); f > 0 {
		m.problemf("%d of %d requests failed", f, m.attempted())
	}
}

// measure steps the warmed-up sessions round-robin until each is done.
func measure(ctx context.Context, sessions ...*session) {
	runtime.GC()
	for active := true; active; {
		active = false
		for _, s := range sessions {
			if !s.done() {
				s.step(ctx)
				active = true
			}
		}
	}
	for _, s := range sessions {
		s.finish(ctx)
	}
}

// runResult is one run of one workload, as stored in a results file.
type runResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	// Correct is false when any correctness check failed; Problems says why.
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	// Attempted/Failed count end-to-end requests; Units is how many units
	// the run completed (the fixed count unless -seconds cut it short).
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Units     int `json:"units"`
	// Digest is the choices digest: FNV-64a over (chosen plan fingerprint,
	// origin) in request order, folded per unit.
	Digest string `json:"choices_digest"`
	// Samples latencies back lat_p50_us and the tail, reported at TailPct.
	Samples int     `json:"samples"`
	TailPct float64 `json:"tail_pct"`
	// MachineSpeed is the median unit's box speed (1.0 = the quiet reference
	// box) and RawQPS the un-normalized requests / timed wall seconds, so
	// the normalization in EndToEnd can be undone by eye.
	MachineSpeed float64 `json:"machine_speed"`
	RawQPS       float64 `json:"raw_qps"`
	// EndToEnd and Layer map metric name to value.
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	Layer    map[string]float64 `json:"per_layer,omitempty"`
	// Counts are the deterministic telemetry counts -compare checks exactly.
	Counts map[string]int64 `json:"counts,omitempty"`
}

// timing reduces a run's units to its three timing metrics, at reference
// machine speed. The sandbox's speed moves in bursts — a fixed CPU loop's
// run time varies by ±15% and a whole 10 s run's raw throughput by up to
// 38% — so every wall time is multiplied by the speed the box gave that
// client during that unit before it is used: qps is the median over units of
// requests per normalized second (a median, so that a unit hit by a burst
// the kernel did not see, or holding a retrain, does not move it), and the
// latency percentiles are taken over every request's normalized latency.
func (m *meter) timing() (qps, p50, tail float64) {
	var lat, thr []float64
	var start [2]int
	for _, u := range m.units {
		if u.norm > 0 {
			thr = append(thr, float64(u.requests)/u.norm)
		}
		for i := range m.tallies {
			for _, d := range m.tallies[i].lat[start[i]:u.latEnd[i]] {
				lat = append(lat, float64(d)/1e3*u.speed[i])
			}
			start[i] = u.latEnd[i]
		}
	}
	sort.Float64s(lat)
	_, qps, _ = quartiles(thr)
	return qps, percentile(lat, 50), percentile(lat, tailPercentile(len(lat)))
}

// machineSpeed is the median unit's normalized-over-wall time: the speed the
// box ran at, 1.0 being the quiet reference box.
func (m *meter) machineSpeed() float64 {
	var speeds []float64
	for _, u := range m.units {
		if u.norm > 0 {
			speeds = append(speeds, u.norm/u.wall.Seconds())
		}
	}
	_, speed, _ := quartiles(speeds)
	return speed
}

// allocsPerOp is the median over units of the unit's allocations per
// request, the clients' think() allocations taken out: a median for the same
// reason qps is one — on loop, the chunks that hold a retrain allocate a
// model's worth more, and how many of them a -seconds run reaches varies.
func (m *meter) allocsPerOp() float64 {
	var per []float64
	for _, u := range m.units {
		if u.requests > 0 {
			per = append(per, (float64(u.mallocs)-m.kernelMallocs*float64(u.thinkIters))/float64(u.requests))
		}
	}
	_, med, _ := quartiles(per)
	return med
}

// endToEndOf computes the end-to-end metrics of an untraced run.
func endToEndOf(name string, m *meter, setup float64) map[string]float64 {
	n := float64(m.attempted())
	qps, p50, tail := m.timing()
	e := map[string]float64{
		"setup_s":       setup,
		"qps":           qps,
		"lat_p50_us":    p50,
		"lat_p99_us":    tail,
		"allocs_per_op": m.allocsPerOp(),
		"live_heap_mb":  float64(m.mem.liveHeap) / (1 << 20),
		"learned_ratio": float64(m.learned()) / n,
		"fail_ratio":    float64(m.failed()) / n,
	}
	if name == "loop" {
		e["retrain_stall_ms"] = meanMicros(m.stalls) / 1e3
		e["exec_cpu_cost_mean"] = m.execCost / math.Max(1, float64(len(m.execs)))
	}
	return e
}

// countsOf extracts the deterministic counts.
func countsOf(m *meter) map[string]int64 {
	return map[string]int64{
		"requests":                int64(m.attempted()),
		"lifecycle.retrains":      m.count["lifecycle.retrain.runs"],
		"lifecycle.promotes":      m.count["lifecycle.promote"],
		"lifecycle.rollbacks":     m.count["lifecycle.rollback"],
		"lifecycle.rejected":      m.count["lifecycle.retrain.rejected"],
		"durable.journal_appends": m.count["durable.journal.appends"],
		"durable.checkpoints":     m.count["durable.checkpoints"],
		"exec.executions":         m.count["exec.executions"],
		"feedback.harvested":      m.count["lifecycle.feedback.harvested"],
	}
}

// options are what one run needs beyond the workload name.
type options struct {
	sz      sizes
	seed    uint64
	seconds float64
	// setups is how many times runUntraced builds the world (setupRepeats
	// outside tests).
	setups int
	// outDir holds loop's durable store while it runs and a traced run's
	// span file.
	outDir string
}

// setupCalibIters is how many kernel iterations (~10 ms) sample the box's
// speed before and after each build.
const setupCalibIters = 1500

// runUntraced builds the workload o.setups times — setup_s is the median
// build-plus-warm-up time, at reference machine speed like every other
// timing — and measures the last build.
func runUntraced(ctx context.Context, name string, o options) (*runResult, error) {
	var (
		setups []float64
		in     *instance
		m      *meter
	)
	for i := 0; i < o.setups; i++ {
		if in != nil {
			in.close()
			in = nil
			runtime.GC()
		}
		var sink float64
		calib := calibrate(&sink, setupCalibIters)
		sw := walltime.Start()
		var err error
		if in, err = build(name, o.sz, o.seed, nil, o.outDir); err != nil {
			return nil, err
		}
		m = newMeter(in.expect)
		in.warm(ctx)
		seconds := sw.Seconds()
		calib += calibrate(&sink, setupCalibIters)
		setups = append(setups, seconds*calibRefSeconds*2*setupCalibIters/calib)
	}
	defer in.close()
	measure(ctx, newSession(in, m, o.seconds))
	_, setup, _ := quartiles(setups)
	res := resultOf(name, o.seed, m)
	res.EndToEnd = endToEndOf(name, m, setup)
	return res, nil
}

func resultOf(name string, seed uint64, m *meter) *runResult {
	n := len(m.tallies[0].lat) + len(m.tallies[1].lat)
	return &runResult{
		Workload: name, Seed: seed,
		Correct: len(m.problems) == 0, Problems: m.problems,
		Attempted: m.attempted(), Failed: m.failed(), Units: len(m.units),
		Digest:  fmt.Sprintf("%016x", m.digest()),
		Samples: n, TailPct: tailPercentile(n),
		MachineSpeed: m.machineSpeed(), RawQPS: float64(m.attempted()) / m.timed.Seconds(),
		Counts: countsOf(m),
	}
}
