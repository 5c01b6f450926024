package serve

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/sim"
)

// RetryPolicy governs how the server re-runs transiently-failed points.
// Deterministic failures (bad configs, unknown benchmarks, client deadlines)
// are never retried regardless of the policy: re-running a pure function of
// its inputs cannot change the answer, and retrying would only mask the
// class of bug this simulator is built to expose (DESIGN.md §10).
type RetryPolicy struct {
	// Attempts is the maximum number of executions per point (default 3;
	// 1 disables retry).
	Attempts int
	// BaseDelay is the first backoff step; step n waits
	// BaseDelay << n, jittered ±50%, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff step.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// jitter is a seeded, mutex-guarded PRNG: backoff spreads competing
// retriers apart, and a fixed seed keeps test runs reproducible.
type jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newJitter() *jitter {
	const seed = 1
	return &jitter{rng: rand.New(rand.NewPCG(seed, seed^0x6c62272e07bb0142))}
}

// delay returns the backoff before retry attempt n (n = 1 is the first
// retry): BaseDelay << (n-1), jittered to [50%, 150%], capped at MaxDelay.
func (j *jitter) delay(p RetryPolicy, n int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < n && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	j.mu.Lock()
	f := 0.5 + j.rng.Float64() // [0.5, 1.5)
	j.mu.Unlock()
	d = time.Duration(float64(d) * f)
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// runWithRetry drives fn under the retry policy. Only failures that
// harness.Transient classifies as transient are retried; everything else —
// including a context cancellation that arrives during backoff — returns
// immediately. It reports the result, the number of attempts actually made,
// and the final error.
func runWithRetry(ctx context.Context, p RetryPolicy, j *jitter,
	fn func(ctx context.Context) (*sim.Result, error)) (*sim.Result, int, error) {
	p = p.withDefaults()
	var err error
	for attempt := 1; ; attempt++ {
		var res *sim.Result
		res, err = fn(ctx)
		if err == nil {
			return res, attempt, nil
		}
		if attempt >= p.Attempts || !harness.Transient(err) {
			return nil, attempt, err
		}
		select {
		case <-time.After(j.delay(p, attempt)):
		case <-ctx.Done():
			return nil, attempt, err
		}
	}
}
