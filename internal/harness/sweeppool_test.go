package harness

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestNewRunnerSweepWorkersIsGOMAXPROCS pins the default sweep fan-out: one
// concurrent simulation per core.
func TestNewRunnerSweepWorkersIsGOMAXPROCS(t *testing.T) {
	if got, want := NewRunner(BenchConfig(), 2).SweepWorkers, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("SweepWorkers = %d, want GOMAXPROCS = %d", got, want)
	}
}

// TestForEachIndexCoversAllAndBoundsFanOut proves the shared sweep pool
// visits every index exactly once and never runs more than SweepWorkers
// items at a time — including from nested sweeps, the ForEachBench→BestSWL
// shape.
func TestForEachIndexCoversAllAndBoundsFanOut(t *testing.T) {
	r := NewRunner(BenchConfig(), 2)
	r.SweepWorkers = 3

	const n = 64
	var hits [n]atomic.Int32
	var active, peak atomic.Int32
	r.forEachIndex(n, func(i int) {
		a := active.Add(1)
		for {
			p := peak.Load()
			if a <= p || peak.CompareAndSwap(p, a) {
				break
			}
		}
		hits[i].Add(1)
		// Nested sweep: must not deadlock and must respect the outer pool's
		// inline-caller design.
		var inner atomic.Int32
		r.forEachIndex(4, func(int) { inner.Add(1) })
		if inner.Load() != 4 {
			t.Errorf("nested sweep ran %d/4 items", inner.Load())
		}
		active.Add(-1)
	})
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times, want exactly once", i, got)
		}
	}
	// The outer pool itself holds ≤ SweepWorkers items concurrently; each
	// may run its nested sweep inline plus helpers, so the hard bound on the
	// outer counter is SweepWorkers.
	if p := peak.Load(); p > int32(r.SweepWorkers) {
		t.Fatalf("outer sweep concurrency peaked at %d, bound is %d", p, r.SweepWorkers)
	}
}
