package loam

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// OptimizeAll fans OptimizeCtx over workers goroutines pulling from one
// shared index and returns the choices in query order; the error joins every
// per-query failure (nil when all succeeded). workers = 1 is the sequential
// reference the concurrent runs are compared with. Exported so bench_test.go
// (package loam_test) drives the same helper.
func OptimizeAll(ctx context.Context, dep *Deployment, qs []*query.Query, workers int) ([]*Choice, error) {
	choices := make([]*Choice, len(qs))
	errs := make([]error, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				choices[i], errs[i] = dep.OptimizeCtx(ctx, qs[i])
			}
		}()
	}
	wg.Wait()
	return choices, errors.Join(errs...)
}

// TestConcurrentOptimizeMatchesSequential steers the same queries once
// sequentially and once from many goroutines and requires identical plan
// choices and estimates — the serving layer's determinism contract. Run with
// -race to also check the shared substrate (cluster, statistics views,
// predictor weights) for data races.
func TestConcurrentOptimizeMatchesSequential(t *testing.T) {
	dep, qs := serveDeployment(t, 31, 12)
	seq, err := OptimizeAll(context.Background(), dep, qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := OptimizeAll(context.Background(), dep, qs, len(qs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if conc[i].Query != qs[i] {
			t.Fatalf("choice %d not in query order", i)
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

// countdownCtx cancels itself after a fixed number of Err checks — a
// deterministic way to land a cancellation between two of the serve drive's
// checks (it polls Err, never Done).
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

// TestServeCancelDuringExploration lands a cancellation between the entry
// check and the post-exploration check of the serve drive, on the admitted
// path and on the fleet's shed path: both must return ctx.Err() with no
// choice, never reach the guard, and count the request identically — started
// in serve.optimize.total, ended in serve.optimize.canceled. A context that
// is already cancelled on entry (after = 0) is refused before it is counted
// as started.
func TestServeCancelDuringExploration(t *testing.T) {
	for _, shed := range []bool{false, true} {
		for after, started := range []int64{0, 1} {
			dep, qs := serveDeployment(t, 38, 1)
			ctx := &countdownCtx{Context: context.Background(), after: int64(after)}
			c, err := dep.serve(ctx, qs[0], shed, ErrTenantThrottled)
			if err != context.Canceled || c != nil {
				t.Fatalf("shed=%v after=%d: got choice %v, err %v; want nil, context.Canceled", shed, after, c, err)
			}
			snap := dep.Metrics()
			for name, want := range map[string]int64{
				"serve.optimize.total":    started,
				"serve.optimize.canceled": 1,
				"serve.optimize.errors":   0,
				"guard.serve.total":       0,
			} {
				if got := counterValue(t, snap, name); got != want {
					t.Fatalf("shed=%v after=%d: %s = %d, want %d", shed, after, name, got, want)
				}
			}
		}
	}
}

// TestConcurrentClusterReads hammers every reader of the two RWMutex-guarded
// substrates — the cluster and the project's history repository — while
// RunDays advances simulated time and appends executions: under -race this
// is the owner of their lock discipline (a reader that skips the lock,
// directly or through a *Locked helper, is a reported data race). One more
// writer only calls AddLoad — the injector's load spike, which stales the
// pool-average memo with no Advance behind it — so readers keep meeting a
// stale memo: one filled under RLock is a race reported here and nowhere else.
func TestConcurrentClusterReads(t *testing.T) {
	sim, ps := tinyProject(t, 34)
	cl, repo := sim.Cluster, ps.Repo
	done := make(chan struct{})
	var wg wg2
	wg.go_(func() {
		for {
			select {
			case <-done:
				return
			default:
				cl.AddLoad([]int{0}, 0)
			}
		}
	})
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
				_ = cl.Average([]int{0, 1})
				_ = cl.Now()
				_ = repo.Len()
				_ = repo.All()
				_ = repo.Window(0, 2)
				_ = repo.CountByDay()
				_ = repo.Days()
				_, _ = repo.Split(1, 1, 0)
			}
		})
	}
	ps.RunDays(0, 2)
	close(done)
	wg.wait()
}

// TestConcurrentOptimizeCancelLeaksNoGoroutines cancels concurrent OptimizeCtx
// callers mid-flight and checks the goroutine count settles back to its
// baseline. Serving starts no goroutine at all — the learned path scores on
// the caller's (guard's TestServeStartsNoGoroutine) — so a canceled request
// has nothing to leave behind; this pins that end to end, under the default
// deadline, for whatever a later change puts on the request path.
func TestConcurrentOptimizeCancelLeaksNoGoroutines(t *testing.T) {
	dep, qs := serveDeployment(t, 38, 16)
	// Warm-up: one full pass so lazily-started runtime goroutines don't
	// count against the baseline.
	if _, err := OptimizeAll(context.Background(), dep, qs, 4); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := OptimizeAll(ctx, dep, qs, 4); err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("round %d: %v", round, err)
			}
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
