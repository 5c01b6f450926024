package sim

import "testing"

// TestStepAllocCeiling pins the steady-state allocation cost of GPU.Step.
// Before the request pool and ring-buffer queues, a warmed step averaged ~9
// heap allocations (fresh Request objects, container/heap boxing, reslice
// leaks); pooling brought it down to ~1 (waiter-list appends on misses).
// The ceiling is deliberately loose — it exists to catch a regression that
// reintroduces per-request allocation, not to freeze the exact count.
func TestStepAllocCeiling(t *testing.T) {
	g, err := New(testConfig(), tinyKernel(400, 48), Baseline{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: pool and ring high-water marks are reached once the memory
	// system is saturated.
	for i := 0; i < 2000; i++ {
		g.Step()
	}
	const steps = 2000
	perStep := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			g.Step()
		}
	}) / steps
	const ceiling = 5.0
	if perStep > ceiling {
		t.Errorf("GPU.Step allocates %.2f objects/step steady-state, ceiling %v", perStep, ceiling)
	}
}
