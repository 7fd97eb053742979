package cpu

import (
	"testing"

	"ghostthread/internal/fault"
)

// TestStepZeroAllocs enforces the SoA/arena contract on the hot path:
// once Load has sized the per-thread slice arrays and the trigger list,
// Core.Step must not touch the heap. A regression here (a closure
// capture, an interface boxing, a slice regrowth inside the steady
// state) silently costs double-digit percent throughput, so it fails the
// build instead of waiting for a profile.
func TestStepZeroAllocs(t *testing.T) {
	// The core dispatches one decoded instruction at a time; the
	// "interpret" subtest measures that per-instruction path. The
	// "faulted" subtest adds a dense preemption schedule, so the trigger
	// list pops a window and pushes the next one throughout the
	// measurement.
	for _, tc := range []struct {
		name  string
		fault *fault.Injector
	}{
		{"interpret", nil},
		{"faulted", fault.NewInjector(fault.Config{Seed: 1, PreemptInterval: 40, PreemptLen: 20}, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := int64(1 << 14)
			c := buildRig(DefaultConfig(), 1<<17, chaseInit(base, 1<<12, 9))
			c.SetFault(tc.fault)
			c.Load(chaseProgram(base, 200_000), nil)
			// Warm up past Load-time sizing.
			for i := 0; i < 5_000; i++ {
				if !c.Step() {
					t.Fatal("program finished during warm-up")
				}
			}
			if c.Err() != nil {
				t.Fatal(c.Err())
			}
			before, _ := c.events.next()
			// One run of a whole window counts every allocation in it;
			// an average per Step would round a rare regrowth down to 0.
			const steps = 2_000
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < steps; i++ {
					if !c.Step() {
						t.Fatal("program finished inside the measurement window")
					}
				}
			})
			if allocs != 0 {
				t.Errorf("Core.Step allocated %.0f objects over %d steps, want 0", allocs, steps)
			}
			if after, _ := c.events.next(); tc.fault != nil && after <= before {
				t.Errorf("preemption head deadline %d -> %d: no trigger fired in the window, the subtest proves nothing", before, after)
			}
		})
	}
}
