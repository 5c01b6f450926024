//go:build !race

package sim_test

// raceEnabled reports a race-detector build, whose overhead swamps
// wall-clock comparisons.
const raceEnabled = false
