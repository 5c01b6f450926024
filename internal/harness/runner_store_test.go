package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/store"
)

// storeRunner returns a tiny-machine runner with a persistent store
// attached over dir.
func storeRunner(t *testing.T, dir string) (*Runner, *store.Store) {
	t.Helper()
	st, err := store.Open(dir, store.Options{LeasePoll: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	r := tinyRunner()
	r.Windows = 2
	r.AttachStore(st)
	return r, st
}

func TestStoreResumeSkipsCompletedPoints(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	r, st := storeRunner(t, dir)
	a, err := r.Run(ctx, "S2", sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Executions() != 1 || st.Len() != 1 {
		t.Fatalf("execs=%d store=%d, want 1/1", r.Executions(), st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process: new runner, same store directory. The completed
	// point must come from the store; only the new point simulates.
	r2, st2 := storeRunner(t, dir)
	a2, err := r2.Run(ctx, "S2", sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Executions() != 0 {
		t.Fatalf("stored point re-simulated (%d executions)", r2.Executions())
	}
	if a2.Cycles != a.Cycles || a2.Instructions != a.Instructions {
		t.Fatalf("store replay diverged: %+v vs %+v", a2, a)
	}
	if _, err := r2.Run(ctx, "BI", sim.Baseline{}); err != nil {
		t.Fatal(err)
	}
	if r2.Executions() != 1 {
		t.Fatalf("incomplete point did not simulate (%d executions)", r2.Executions())
	}
	if st2.Len() != 2 {
		t.Fatalf("store has %d entries, want 2", st2.Len())
	}
}

func TestStoreDifferentConfigNeverAliases(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	r, st := storeRunner(t, dir)
	if _, err := r.Run(ctx, "S2", sim.Baseline{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Same store, different configuration: the key fingerprints differ,
	// so the stale entry must be ignored and the run re-simulated.
	r2, _ := storeRunner(t, dir)
	r2.Cfg.GPU.L1Bytes = 96 * 1024
	if _, err := r2.Run(ctx, "S2", sim.Baseline{}); err != nil {
		t.Fatal(err)
	}
	if r2.Executions() != 1 {
		t.Fatal("changed config hit a stale store entry")
	}

	// Same store and configuration, different run length: the key carries
	// the window count, so the 2-window entry must not answer a 3-window
	// run.
	r3, _ := storeRunner(t, dir)
	r3.Windows = 3
	if _, err := r3.Run(ctx, "S2", sim.Baseline{}); err != nil {
		t.Fatal(err)
	}
	if r3.Executions() != 1 {
		t.Fatal("changed run length hit a stale store entry")
	}
}

func TestStoreBackedMemoPersistsAcrossRunners(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	r1, st1 := storeRunner(t, dir)
	a, err := r1.Run(ctx, "S2", sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Executions() != 1 || st1.Len() != 1 {
		t.Fatalf("execs=%d store=%d, want 1/1", r1.Executions(), st1.Len())
	}

	// A second runner over the same directory — a restarted process, or a
	// replica — must serve the point from the store without simulating.
	r2, _ := storeRunner(t, dir)
	b, err := r2.Run(ctx, "S2", sim.Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Executions() != 0 {
		t.Fatalf("store-committed point re-simulated (%d executions)", r2.Executions())
	}
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions || a.IPC() != b.IPC() {
		t.Fatalf("store round-trip changed the result: %+v vs %+v", a, b)
	}
}

func TestStoreSingleFlightAcrossRunners(t *testing.T) {
	// Two runners (two store handles, one directory) race the same key
	// concurrently: the cross-process lease must let exactly one execute.
	dir := t.TempDir()
	ctx := context.Background()
	r1, _ := storeRunner(t, dir)
	r2, _ := storeRunner(t, dir)

	var wg sync.WaitGroup
	runs := []*Runner{r1, r2, r1, r2}
	errs := make([]error, len(runs))
	for i, r := range runs {
		wg.Add(1)
		go func(i int, r *Runner) {
			defer wg.Done()
			_, errs[i] = r.Run(ctx, "S2", sim.Baseline{})
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if total := r1.Executions() + r2.Executions(); total != 1 {
		t.Fatalf("concurrent same-key runs across two runners executed %d times, want exactly 1", total)
	}
}

func TestStoreFailedRunNotCommitted(t *testing.T) {
	dir := t.TempDir()
	r, st := storeRunner(t, dir)
	r.Timeout = time.Nanosecond // every run fails with ErrTimeout

	_, err := r.Run(context.Background(), "S2", sim.Baseline{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if st.Len() != 0 {
		t.Fatalf("failed run committed to the store (%d entries)", st.Len())
	}
	// And the failure is classified transient: a retry is allowed to
	// succeed.
	r.Timeout = 0
	if _, err := r.Run(context.Background(), "S2", sim.Baseline{}); err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if st.Len() != 1 {
		t.Fatalf("retried success not committed (%d entries)", st.Len())
	}
}

func TestTransientClassification(t *testing.T) {
	wrap := func(sentinel error) error {
		return &RunError{Bench: "S2", Policy: "baseline", Phase: PhaseRun,
			Err: fmt.Errorf("wrapped: %w", sentinel)}
	}
	cases := []struct {
		name      string
		err       error
		transient bool
		kind      string
	}{
		{"nil", nil, false, ""},
		{"watchdog", wrap(ErrWatchdog), true, "watchdog"},
		{"timeout", wrap(ErrTimeout), true, "timeout"},
		{"panic", wrap(ErrPanic), true, "panic"},
		{"badconfig", wrap(ErrBadConfig), false, "badconfig"},
		{"unknownbench", wrap(ErrUnknownBench), false, "unknownbench"},
		{"client-cancel", wrap(context.Canceled), false, "canceled"},
		{"client-deadline", wrap(context.DeadlineExceeded), false, "deadline"},
		{"unclassified", errors.New("mystery"), false, "other"},
	}
	for _, tc := range cases {
		if got := Transient(tc.err); got != tc.transient {
			t.Errorf("%s: Transient = %v, want %v", tc.name, got, tc.transient)
		}
		if got := FailureKind(tc.err); got != tc.kind {
			t.Errorf("%s: FailureKind = %q, want %q", tc.name, got, tc.kind)
		}
	}
	// A panic that is ALSO a bad config (panic while validating) must stay
	// permanent: the badconfig classification wins.
	both := &RunError{Err: fmt.Errorf("%w: %w", ErrBadConfig, ErrPanic)}
	if Transient(both) {
		t.Error("badconfig+panic classified transient; deterministic failures must never retry")
	}
}
