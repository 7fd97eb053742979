package cpu

import "testing"

// TestStepZeroAllocs enforces the SoA/arena contract on the hot path:
// once Load has sized the per-thread slice arrays and the event wheel,
// Core.Step must not touch the heap. A regression here (a closure
// capture, an interface boxing, a slice regrowth inside the steady
// state) silently costs double-digit percent throughput, so it fails the
// build instead of waiting for a profile.
func TestStepZeroAllocs(t *testing.T) {
	// The core dispatches one decoded instruction at a time; the
	// "interpret" subtest measures that per-instruction path.
	t.Run("interpret", func(t *testing.T) {
		base := int64(1 << 14)
		c := buildRig(DefaultConfig(), 1<<17, chaseInit(base, 1<<12, 9))
		c.Load(chaseProgram(base, 200_000), nil)
		// Warm up past Load-time sizing and any one-time wheel growth.
		for i := 0; i < 5_000; i++ {
			if !c.Step() {
				t.Fatal("program finished during warm-up")
			}
		}
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		allocs := testing.AllocsPerRun(2_000, func() {
			if !c.Step() {
				t.Fatal("program finished inside the measurement window")
			}
		})
		if allocs != 0 {
			t.Errorf("Core.Step allocates %.1f objects/step, want 0", allocs)
		}
	})
}
