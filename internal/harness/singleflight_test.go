package harness

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/sim"
	"github.com/linebacker-sim/linebacker/internal/store"
)

// TestRunCfgSingleFlight is the regression test for the concurrent
// double-execution bug: N goroutines racing RunCfg on the same memo key all
// used to pass the cache check before any of them finished, so the identical
// simulation executed N times (and raced to commit the result). With
// single-flight memoisation exactly one leader simulates; every racer gets
// the leader's result, and the store holds exactly one record.
func TestRunCfgSingleFlight(t *testing.T) {
	// The race needs real parallelism: under GOMAXPROCS=1 the callers can
	// serialise by accident and the pre-fix code passes vacuously.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	r := tinyRunner()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	defer st.Close()
	r.AttachStore(st)

	const callers = 8
	results := make([]*sim.Result, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start // all callers hit the memo check together
			results[i], errs[i] = r.Run(context.Background(), "S2", sim.Baseline{})
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] == nil {
			t.Fatalf("caller %d: nil result", i)
		}
		if results[i] != results[0] {
			t.Errorf("caller %d got a different result object than caller 0", i)
		}
	}
	if got := r.Executions(); got != 1 {
		t.Errorf("Executions() = %d, want 1 (same-key racers must share one run)", got)
	}
	if got := st.Len(); got != 1 {
		t.Errorf("store Len() = %d, want 1", got)
	}
	if err := st.Err(); err != nil {
		t.Errorf("store write error: %v", err)
	}

	// A later same-key call is a plain memo hit: still one execution.
	if _, err := r.Run(context.Background(), "S2", sim.Baseline{}); err != nil {
		t.Fatalf("memo-hit run: %v", err)
	}
	if got := r.Executions(); got != 1 {
		t.Errorf("Executions() after memo hit = %d, want 1", got)
	}
}
