package sim

import "testing"

// TestStepAllocCeiling pins the steady-state allocation cost of GPU.Step.
// Once the request pools and ring buffers have reached their high-water
// marks, a warmed step allocates nothing on the memory-access path: the
// MSHR files are fixed tables built with the caches, the cold-miss set
// grows only on a new 64 KB page, and each MSHR slot's waiter list keeps
// its backing array from fill to fill. What remains is rare growth (a new
// seen-set page, a waiter list longer than its slot has held), well under
// one allocation per hundred steps. A regression that allocates per miss
// or per request lands far above the ceiling.
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
	const ceiling = 0.1
	if perStep > ceiling {
		t.Errorf("GPU.Step allocates %.3f objects/step steady-state, ceiling %v", perStep, ceiling)
	}
	t.Logf("GPU.Step: %.4f allocations/step", perStep)
}
