package loam

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loam/internal/predictor"
	"loam/internal/query"
)

// serveDeployment builds a small trained deployment plus a slice of fresh
// test-day queries for the concurrency tests.
func serveDeployment(t *testing.T, seed uint64, nQueries int) (*Deployment, []*query.Query) {
	t.Helper()
	_, ps := tinyProject(t, seed)
	ps.RunDays(0, 6)
	dcfg := DefaultDeployConfig()
	dcfg.TrainDays = 5
	dcfg.TestDays = 1
	dcfg.Predictor.Epochs = 2
	dcfg.DomainPlans = 8
	dep, err := ps.Deploy(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	var qs []*query.Query
	for day := 6; len(qs) < nQueries; day++ {
		qs = append(qs, ps.Gen.Day(day)...)
	}
	return dep, qs[:nQueries]
}

// TestConcurrentOptimizeMatchesSequential steers the same queries once
// sequentially and once from many goroutines and requires identical plan
// choices and estimates — the serving layer's determinism contract. Run with
// -race to also check the shared substrate (cluster, statistics views,
// predictor weights) for data races.
func TestConcurrentOptimizeMatchesSequential(t *testing.T) {
	dep, qs := serveDeployment(t, 31, 12)

	seq := make([]*Choice, len(qs))
	for i, q := range qs {
		c, err := dep.OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = c
	}

	conc := make([]*Choice, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conc[i], errs[i] = dep.OptimizeCtx(context.Background(), qs[i])
		}(i)
	}
	wg.Wait()

	for i := range qs {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if conc[i].ChosenIdx != seq[i].ChosenIdx {
			t.Fatalf("query %d: concurrent chose %d, sequential %d", i, conc[i].ChosenIdx, seq[i].ChosenIdx)
		}
		for j := range seq[i].Estimates {
			if conc[i].Estimates[j] != seq[i].Estimates[j] {
				t.Fatalf("query %d estimate %d differs under concurrency", i, j)
			}
		}
	}
}

// TestConcurrentExecuteChoice optimizes and executes from multiple goroutines
// against one live cluster. Execution order (and hence noise draws) is
// scheduler-dependent, but the run must be race-free, panic-free, and log
// exactly one history record per query.
func TestConcurrentExecuteChoice(t *testing.T) {
	dep, qs := serveDeployment(t, 32, 16)
	before := dep.ProjectSim.Repo.Len()

	var wg sync.WaitGroup
	for _, q := range qs {
		wg.Add(1)
		go func(q *query.Query) {
			defer wg.Done()
			choice, err := dep.OptimizeCtx(context.Background(), q)
			if err != nil {
				t.Errorf("optimize %s: %v", q.ID, err)
				return
			}
			if rec := dep.ExecuteChoice(choice); rec.CPUCost <= 0 {
				t.Errorf("query %s: non-positive executed cost", q.ID)
			}
		}(q)
	}
	wg.Wait()

	if got := dep.ProjectSim.Repo.Len(); got != before+len(qs) {
		t.Fatalf("repo grew by %d, want %d", got-before, len(qs))
	}
}

// TestOptimizeBatchMatchesSequential requires OptimizeBatch to return the
// same choices in the same order at every parallelism level.
func TestOptimizeBatchMatchesSequential(t *testing.T) {
	dep, qs := serveDeployment(t, 33, 10)
	seq, err := dep.OptimizeBatch(context.Background(), qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(qs) {
		t.Fatalf("batch returned %d choices for %d queries", len(seq), len(qs))
	}
	for _, parallelism := range []int{2, 4, 16} {
		par, err := dep.OptimizeBatch(context.Background(), qs, parallelism)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", parallelism, err)
		}
		for i := range qs {
			if par[i] == nil || par[i].Query != qs[i] {
				t.Fatalf("parallelism=%d: choice %d not in query order", parallelism, i)
			}
			if par[i].ChosenIdx != seq[i].ChosenIdx {
				t.Fatalf("parallelism=%d: query %d chose %d, sequential %d",
					parallelism, i, par[i].ChosenIdx, seq[i].ChosenIdx)
			}
			for j := range seq[i].Estimates {
				if par[i].Estimates[j] != seq[i].Estimates[j] {
					t.Fatalf("parallelism=%d: query %d estimate %d differs", parallelism, i, j)
				}
			}
		}
	}
}

// TestOptimizeBatchCanceledBeforeStart feeds an already-canceled context:
// every choice must come back nil, and the error must be a BatchErrors whose
// entries all wrap context.Canceled — on the sequential and parallel paths.
func TestOptimizeBatchCanceledBeforeStart(t *testing.T) {
	dep, qs := serveDeployment(t, 35, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallelism := range []int{1, 4} {
		choices, err := dep.OptimizeBatch(ctx, qs, parallelism)
		if err == nil {
			t.Fatalf("parallelism=%d: want error from canceled batch", parallelism)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism=%d: errors.Is(err, context.Canceled) = false for %v", parallelism, err)
		}
		var be BatchErrors
		if !errors.As(err, &be) {
			t.Fatalf("parallelism=%d: error is %T, want BatchErrors", parallelism, err)
		}
		if len(be) != len(qs) {
			t.Fatalf("parallelism=%d: %d batch errors, want %d", parallelism, len(be), len(qs))
		}
		for i := range qs {
			if choices[i] != nil {
				t.Fatalf("parallelism=%d: non-nil choice %d for unstarted query", parallelism, i)
			}
			if be[i].Index != i || be[i].Query != qs[i] {
				t.Fatalf("parallelism=%d: entry %d misattributed: index %d query %p", parallelism, i, be[i].Index, be[i].Query)
			}
			if !errors.Is(be[i], context.Canceled) {
				t.Fatalf("parallelism=%d: entry %d does not wrap context.Canceled: %v", parallelism, i, be[i])
			}
		}
	}
}

// countdownCtx cancels itself after a fixed number of Err checks — a
// deterministic way to land a cancellation mid-batch on the sequential path
// (which polls Err, never Done).
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestOptimizeBatchCancelMidBatchSequential cancels deterministically after
// the first query: query 0 must succeed, every later query must be abandoned
// with a nil choice and a context.Canceled batch entry.
func TestOptimizeBatchCancelMidBatchSequential(t *testing.T) {
	dep, qs := serveDeployment(t, 36, 5)
	// Checks per query: one at the loop top, two inside OptimizeCtx. after=4
	// lets query 0 through and trips during query 1's entry check.
	ctx := &countdownCtx{Context: context.Background(), after: 4}
	choices, err := dep.OptimizeBatch(ctx, qs, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if choices[0] == nil || choices[0].Chosen == nil {
		t.Fatal("query 0 should have completed before the cancel")
	}
	var be BatchErrors
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want BatchErrors", err)
	}
	if len(be) != len(qs)-1 {
		t.Fatalf("%d batch errors, want %d", len(be), len(qs)-1)
	}
	for i := 1; i < len(qs); i++ {
		if choices[i] != nil {
			t.Fatalf("choice %d should be nil after cancel", i)
		}
	}
}

// TestServeCancelDuringExploration lands a cancellation between the entry
// check and the post-exploration check of the serve drive, on the admitted
// path and on the fleet's shed path: both must return ctx.Err() with no
// choice, never reach the guard, and count the request identically — started
// in serve.optimize.total, ended in serve.optimize.canceled.
func TestServeCancelDuringExploration(t *testing.T) {
	for _, shed := range []bool{false, true} {
		dep, qs := serveDeployment(t, 38, 1)
		ctx := &countdownCtx{Context: context.Background(), after: 1}
		c, err := dep.serve(ctx, qs[0], shed, ErrTenantThrottled)
		if err != context.Canceled || c != nil {
			t.Fatalf("shed=%v: got choice %v, err %v; want nil, context.Canceled", shed, c, err)
		}
		snap := dep.Metrics()
		for name, want := range map[string]int64{
			"serve.optimize.total":    1,
			"serve.optimize.canceled": 1,
			"serve.optimize.errors":   0,
			"guard.serve.total":       0,
		} {
			if got := counterValue(t, snap, name); got != want {
				t.Fatalf("shed=%v: %s = %d, want %d", shed, name, got, want)
			}
		}
	}
}

// TestOptimizeBatchCancelInFlight cancels concurrently with a parallel batch
// and checks the invariants that must hold wherever the cancel lands: the
// call returns, every nil choice has a matching batch entry, and any error
// reports context.Canceled.
func TestOptimizeBatchCancelInFlight(t *testing.T) {
	dep, qs := serveDeployment(t, 37, 16)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var choices []*Choice
	var err error
	go func() {
		defer close(done)
		choices, err = dep.OptimizeBatch(ctx, qs, 2)
	}()
	cancel()
	<-done
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected batch error: %v", err)
	}
	failed := map[int]bool{}
	var be BatchErrors
	if err != nil {
		if !errors.As(err, &be) {
			t.Fatalf("error is %T, want BatchErrors", err)
		}
		for _, e := range be {
			failed[e.Index] = true
		}
	}
	for i := range qs {
		if (choices[i] == nil) != failed[i] {
			t.Fatalf("query %d: nil-choice/error mismatch (nil=%v, failed=%v)", i, choices[i] == nil, failed[i])
		}
	}
}

// TestBatchErrorSurface pins the typed error surface itself: attribution,
// formatting, and errors.Is/As traversal through both levels.
func TestBatchErrorSurface(t *testing.T) {
	_, ps := tinyProject(t, 38)
	q0 := ps.Gen.Templates[0].Instantiate(ps.Rng("be"), 0)
	q1 := ps.Gen.Templates[1].Instantiate(ps.Rng("be"), 0)
	qs := []*query.Query{q0, q1}

	if err := batchError(qs, []error{nil, nil}); err != nil {
		t.Fatalf("all-nil batch should yield nil error, got %v", err)
	}

	cause := predictor.ErrNoCandidates
	err := batchError(qs, []error{nil, cause})
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("errors.Is does not reach the cause: %v", err)
	}
	var be BatchErrors
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want BatchErrors", err)
	}
	if len(be) != 1 || be[0].Index != 1 || be[0].Query != q1 {
		t.Fatalf("misattributed: %+v", be)
	}
	var one *BatchError
	if !errors.As(err, &one) || one.Index != 1 {
		t.Fatalf("errors.As(*BatchError) failed: %v", err)
	}
	if !strings.Contains(err.Error(), "batch[1]") || !strings.Contains(err.Error(), "1 queries failed") {
		t.Fatalf("unexpected message %q", err.Error())
	}
	if !strings.Contains(one.Error(), q1.ID) {
		t.Fatalf("entry message %q lacks query id %q", one.Error(), q1.ID)
	}
}

// TestConcurrentClusterReads hammers the cluster's read API while a writer
// advances simulated time — the RWMutex contract under -race.
func TestConcurrentClusterReads(t *testing.T) {
	sim, ps := tinyProject(t, 34)
	cl := sim.Cluster
	done := make(chan struct{})
	var wg wg2
	for r := 0; r < 4; r++ {
		wg.go_(func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = cl.ClusterAverage()
				_ = cl.HistoryAverage()
				_ = cl.MachineMetrics(0)
				_ = cl.Now()
			}
		})
	}
	ps.RunDays(0, 2)
	close(done)
	wg.wait()
}

// TestOptimizeBatchCancelLeaksNoGoroutines cancels parallel batches mid-
// flight and checks the goroutine count settles back to its baseline: the
// regression test for worker or watchdog goroutines outliving a canceled
// batch (the guard arms a deadline watchdog per learned scoring call, and
// the batch path spawns a worker pool — all of them must unwind).
func TestOptimizeBatchCancelLeaksNoGoroutines(t *testing.T) {
	dep, qs := serveDeployment(t, 38, 16)
	// Warm-up: one full batch so lazily-started runtime goroutines don't
	// count against the baseline.
	if _, err := dep.OptimizeBatch(context.Background(), qs, 4); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = dep.OptimizeBatch(ctx, qs, 4)
		}()
		cancel()
		<-done
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wg2 is a tiny WaitGroup wrapper keeping the test bodies readable.
type wg2 struct{ wg sync.WaitGroup }

func (w *wg2) go_(f func()) {
	w.wg.Add(1)
	go func() { defer w.wg.Done(); f() }()
}

func (w *wg2) wait() { w.wg.Wait() }
