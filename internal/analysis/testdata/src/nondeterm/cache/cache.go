// Package cache exercises the nondeterm analyzer: the package name puts it
// in the simulation-state scope.
package cache

import (
	"math/rand"
	"time"
)

type c struct {
	stamp time.Time
	rng   *rand.Rand
}

func (x *c) bad(done chan struct{}) {
	x.stamp = time.Now()               // want `time\.Now`
	_ = time.Since(x.stamp)            // want `time\.Since`
	_ = rand.Intn(4)                   // want `global rand\.Intn`
	rand.Shuffle(4, func(a, b int) {}) // want `global rand\.Shuffle`
	go func() { done <- struct{}{} }() // want `goroutine spawned`
}

func (x *c) good(seed int64) int {
	// Explicitly seeded generators are the sanctioned randomness source.
	x.rng = rand.New(rand.NewSource(seed))
	// Durations as constants are fine; only wall-clock reads are banned.
	_ = 5 * time.Millisecond
	return x.rng.Intn(16)
}
