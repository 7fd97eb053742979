//go:build race

package sim_test

// raceDetectorOn gates the heaviest differential sweeps down to a
// representative subset: the race detector's ~10x slowdown pushes the
// full 36-workload shadow sweep past the test timeout, and simulations
// run on one goroutine, so the race run gains nothing from every
// registry entry. Full coverage runs in the plain tier-1 suite.
const raceDetectorOn = true
