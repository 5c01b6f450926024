package harness

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/linebacker-sim/linebacker/internal/chaos"
	"github.com/linebacker-sim/linebacker/internal/config"
	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/workload"
)

// TestRunnerDropsFailedMachines runs clean points between points that
// panic, are cancelled, time out, trip the watchdog and return a drive
// error, on a runner that keeps one idle machine. No failed point's
// machine may serve a later point, and every clean point must equal a
// new machine's run. A successful run whose chaos injector stalled the
// DRAM keeps its machine, and the clean point after it re-arms it.
func TestRunnerDropsFailedMachines(t *testing.T) {
	cfg := BenchConfig()
	r := NewRunner(cfg, 1)
	r.SweepWorkers = 1
	k := mustKernel(t, "S2")
	spec := func(s string) config.Config {
		c := cfg
		var err error
		if c.Chaos, err = chaos.ParseSpec(s); err != nil {
			t.Fatal(err)
		}
		return c
	}
	want := freshRun(t, cfg, k, r.cycles(&cfg))
	errDrive := errors.New("drive failed")

	failed := map[*sim.GPU]string{}
	var last *sim.GPU
	simulate := func(ctx context.Context, cfg config.Config, drive func(context.Context, *sim.GPU) error) (*sim.Result, error) {
		last = nil
		return r.Simulate(ctx, cfg, "", k, sim.Baseline{}, func(g *sim.GPU) {
			if p, ok := failed[g]; ok {
				t.Errorf("the machine of the failed %s point was re-armed", p)
			}
			last = g
		}, drive)
	}
	clean := func(after string) *sim.GPU {
		t.Helper()
		res, err := simulate(context.Background(), cfg, nil)
		if err != nil {
			t.Fatalf("clean point after %s: %v", after, err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("clean point after %s differs from a new machine's run", after)
		}
		return last
	}
	fail := func(name string, wantErr error, ctx context.Context, cfg config.Config, drive func(context.Context, *sim.GPU) error) {
		t.Helper()
		if _, err := simulate(ctx, cfg, drive); !errors.Is(err, wantErr) {
			t.Fatalf("%s point: error %v, want %v", name, err, wantErr)
		}
		if last == nil {
			t.Fatalf("%s point: no machine was armed", name)
		}
		failed[last] = name
	}

	first := clean("nothing")
	fail("panic", ErrPanic, context.Background(), spec("panic:sm:1000"), nil)
	clean("panic")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	fail("cancelled", context.Canceled, cancelled, cfg, nil)
	clean("cancellation")
	r.Timeout = time.Nanosecond
	fail("timeout", ErrTimeout, context.Background(), cfg, nil)
	r.Timeout = 0
	clean("timeout")
	r.WatchdogTick = 20 * time.Millisecond
	fail("watchdog", ErrWatchdog, context.Background(), spec("stall-dram:1000"), func(ctx context.Context, g *sim.GPU) error {
		_, err := g.RunCtx(ctx, 0) // a livelocked run that only the watchdog ends
		return err
	})
	r.WatchdogTick = 0
	clean("watchdog trip")
	fail("drive-error", errDrive, context.Background(), cfg, func(ctx context.Context, g *sim.GPU) error {
		g.RunCtx(ctx, 5000)
		return errDrive
	})
	kept := clean("drive error")

	if _, err := simulate(context.Background(), spec("stall-dram:1000"), nil); err != nil {
		t.Fatalf("stalled run to the cycle limit: %v", err)
	}
	if last != kept {
		t.Error("a clean point's idle machine was not re-armed")
	}
	if got := clean("a stalled run that succeeded"); got != kept {
		t.Error("the machine of a successful stalled run was not re-armed")
	}
	if len(failed) != 5 || failed[first] != "panic" {
		t.Errorf("failed points' machines %v; the first clean machine must have served the panic point", failed)
	}
	if len(r.idle) != 1 {
		t.Errorf("%d idle machines, want 1", len(r.idle))
	}
}

// TestRunnerIdleListBound runs three points at once, each holding its
// machine until all three are armed, and requires the runner to keep at
// most max(1, SweepWorkers) of the three idle.
func TestRunnerIdleListBound(t *testing.T) {
	k := mustKernel(t, "S2")
	for _, workers := range []int{0, 2} {
		r := NewRunner(BenchConfig(), 1)
		r.SweepWorkers = workers
		var armed, done sync.WaitGroup
		armed.Add(3)
		for range 3 {
			done.Add(1)
			go func() {
				defer done.Done()
				hold := func(*sim.GPU) { armed.Done(); armed.Wait() }
				if _, err := r.Simulate(context.Background(), r.Cfg, "", k, sim.Baseline{}, hold, nil); err != nil {
					t.Error(err)
				}
			}()
		}
		done.Wait()
		if want := max(1, workers); len(r.idle) != want {
			t.Errorf("SweepWorkers %d: %d idle machines, want %d", workers, len(r.idle), want)
		}
	}
}

// TestRunnerReuseCeiling holds a runner's second point of one shape to at
// most a tenth of the bytes sim.New allocates for that machine: the
// machine is re-armed, and its arrays, queues, pools and cold-miss tables
// keep what the first point grew. The baseline's Attach allocates
// nothing, so no policy state is counted.
func TestRunnerReuseCeiling(t *testing.T) {
	cfg := BenchConfig()
	k := mustKernel(t, "S2")
	newBytes := allocated(func() {
		if _, err := sim.New(cfg, k, sim.Baseline{}); err != nil {
			t.Fatal(err)
		}
	})
	r := NewRunner(cfg, 1)
	point := func(key string) {
		if _, err := r.RunCfg(context.Background(), cfg, key, "S2", sim.Baseline{}); err != nil {
			t.Fatal(err)
		}
	}
	point("first")
	second := allocated(func() { point("second") })
	t.Logf("sim.New: %d B; the runner's second point: %d B", newBytes, second)
	if second > newBytes/10 {
		t.Errorf("the runner's second point allocated %d B, ceiling %d B (a tenth of sim.New's %d B)",
			second, newBytes/10, newBytes)
	}
}

// allocated returns the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// freshRun runs kernel k under the baseline for cycles on a new machine.
func freshRun(t *testing.T, cfg config.Config, k *workload.Kernel, cycles int64) *sim.Result {
	t.Helper()
	g, err := sim.New(cfg, k, sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(cycles)
	return g.Collect()
}

func mustKernel(t *testing.T, bench string) *workload.Kernel {
	t.Helper()
	b, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("%s missing from Table 2", bench)
	}
	return b.Kernel
}
