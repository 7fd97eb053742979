//go:build race

package harness

// raceDetectorOn gates the registry-wide simulation sweeps down to a
// representative subset: simulations run on one goroutine, so the race
// detector's ~10x slowdown buys nothing on every registry entry. Full
// coverage runs in the plain tier-1 suite.
const raceDetectorOn = true
