package slice_test

import (
	"errors"
	"testing"

	"ghostthread/internal/lint"
	"ghostthread/internal/slice"
	"ghostthread/internal/workloads"
)

// TestOnlyChaseHopsRematerialize pins the slicer's rematerialization
// rule on every registered workload's whole-region compiler slice. In
// the graph and hash-join kernels the instruction after a target load is
// a branch that reads the loaded value (bfs's visited check, hj's key
// compare) and no kept data instruction reads it — in bc and cc only
// once the branch over the dropped store and AtomicAdd is elided. Such a
// target must become a prefetch; kept as a demand load it makes the
// ghost a lockstep shadow of main that issues no prefetch. kangaroo's
// chase hop, whose value is the next hop's address, is the one target
// that stays a demand load (TestKangarooCompilerSliceProved asserts it).
func TestOnlyChaseHopsRematerialize(t *testing.T) {
	for _, e := range workloads.Entries() {
		if e.Name == "kangaroo" {
			continue
		}
		wopts := workloads.ProfileOptions()
		inst := e.Build(wopts)
		base := inst.Baseline.Main
		ext, err := slice.ExtractWith(base, lint.StaticTargets(base), wopts.Sync, inst.Counters,
			slice.Options{AllowUnproved: true})
		if errors.Is(err, slice.ErrUnsliceable) {
			continue // nas-is: no targets
		}
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if ext.Rematerialized != 0 {
			t.Errorf("%s: %d target loads kept as demand loads, want 0", e.Name, ext.Rematerialized)
		}
	}
}
