package harness

import (
	"reflect"
	"testing"

	"ghostthread/internal/sim"
)

// profKeyField maps each comparable sim.Config field to its profKey
// counterpart. TestProfKeyCoversSimConfig walks sim.Config by reflection
// and fails the moment a comparable field appears that this table (and
// hence profKey) does not cover — the failure a stale memo would
// otherwise hide.
var profKeyField = map[string]string{
	"Cores":     "cores",
	"CPU":       "cpu",
	"Hier":      "hier",
	"LLC":       "llc",
	"MemCtl":    "memCtl",
	"MaxCycles": "maxCycles",
	"CycleStep": "cycleStep",
	"Fault":     "fault",
	"Governor":  "governor",
}

// profKeyExcluded lists the comparable sim.Config fields profileWorkload
// strips before keying, with the reason a profile cannot depend on them.
var profKeyExcluded = map[string]string{
	"Shadow": "observation-only (TestShadowResultInvariance) and a profile.Report carries no shadow verdict",
}

func TestProfKeyCoversSimConfig(t *testing.T) {
	cfgT := reflect.TypeOf(sim.Config{})
	keyT := reflect.TypeOf(profKey{})

	covered := map[string]bool{"workload": true} // the extra, non-Config key field
	for i := 0; i < cfgT.NumField(); i++ {
		f := cfgT.Field(i)
		if !f.Type.Comparable() {
			// Telemetry carries a func (Sink) and cannot be a memo key;
			// configs with telemetry on bypass the cache entirely (see
			// profileWorkload).
			continue
		}
		if _, ok := profKeyExcluded[f.Name]; ok {
			continue
		}
		keyName, ok := profKeyField[f.Name]
		if !ok {
			t.Errorf("sim.Config.%s is comparable but has no profKey counterpart: "+
				"add it to profKey, profileWorkload's key construction, and this table, "+
				"or every memo hit silently ignores it", f.Name)
			continue
		}
		kf, ok := keyT.FieldByName(keyName)
		if !ok {
			t.Errorf("profKeyField maps sim.Config.%s to profKey.%s, which does not exist", f.Name, keyName)
			continue
		}
		if kf.Type != f.Type {
			t.Errorf("profKey.%s has type %v, want sim.Config.%s's type %v", keyName, kf.Type, f.Name, f.Type)
		}
		covered[keyName] = true
	}

	// The inverse direction: every profKey field must correspond to a
	// sim.Config field (or be the workload name), so dead key fields — which
	// would split the cache for no reason — are caught too.
	for i := 0; i < keyT.NumField(); i++ {
		if name := keyT.Field(i).Name; !covered[name] {
			t.Errorf("profKey.%s corresponds to no comparable sim.Config field", name)
		}
	}
}
