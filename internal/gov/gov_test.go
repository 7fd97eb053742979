package gov

import (
	"testing"

	"ghostthread/internal/cache"
	"ghostthread/internal/obs"
)

// healthy returns a window sample no negative-benefit rule should
// condemn: a decent prefetch sample, accurate, timely, leading.
func healthy(core int) *obs.WindowSample {
	return &obs.WindowSample{
		Core:           core,
		HelperActive:   true,
		GhostLeadCount: 100,
		GhostLeadP50:   40,
		GhostLeadP95:   80,
		Prefetch:       cache.PrefetchQuality{Issued: 500, Redundant: 100, Timely: 300, Late: 50},
		PFAccuracy:     0.7,
		PFTimeliness:   0.86,
	}
}

func step(g *Governor, w int64, ws *obs.WindowSample) []Decision {
	return g.Step(w, w*20000, []*obs.WindowSample{ws})
}

func TestNegativeRules(t *testing.T) {
	g := New(Config{Enabled: true}, 1)
	cases := []struct {
		name string
		ws   obs.WindowSample
		why  string
	}{
		{"garbage", *garbage(), "garbage"},
		{"wasted", obs.WindowSample{HelperActive: true,
			GhostLeadCount: 20, GhostLeadP50: 1,
			Prefetch:     cache.PrefetchQuality{Issued: 100, Redundant: 250, Timely: 2},
			PFAccuracy:   0.3,
			PFTimeliness: 0.02}, "wasted"},
	}
	for _, c := range cases {
		neg, why := g.negative(&c.ws)
		if !neg || why != c.why {
			t.Errorf("%s: negative() = (%v, %q), want (true, %q)", c.name, neg, why, c.why)
		}
	}
	if neg, why := g.negative(healthy(0)); neg {
		t.Errorf("healthy sample judged negative (%s)", why)
	}
	// A window without a meaningful prefetch sample is never judged,
	// however bad its ratios look.
	small := garbage()
	small.Prefetch = cache.PrefetchQuality{Issued: MinPF - 1}
	if neg, why := g.negative(small); neg {
		t.Errorf("sub-MinPF sample judged negative (%s)", why)
	}
	// Redundant-heavy but timely: a fresh ghost sprinting through a
	// half-warm region must not be condemned as wasted.
	warm := healthy(0)
	warm.Prefetch = cache.PrefetchQuality{Issued: 100, Redundant: 300, Timely: 80}
	warm.PFTimeliness = 0.8
	if neg, why := g.negative(warm); neg {
		t.Errorf("timely redundant-heavy sample judged negative (%s)", why)
	}
}

// garbage is a window the negative-benefit rules condemn: a meaningful
// prefetch sample of which almost nothing was useful.
func garbage() *obs.WindowSample {
	return &obs.WindowSample{HelperActive: true,
		Prefetch:   cache.PrefetchQuality{Issued: 100, Redundant: 20},
		PFAccuracy: 0.05, GhostLeadCount: 10, GhostLeadP50: 30}
}

// killAt feeds garbage windows from w until the governor kills the ghost
// and returns the kill's window; a fresh ghost dies at w+Warmup+KillAfter-1.
func killAt(t *testing.T, g *Governor, w int64) int64 {
	t.Helper()
	for end := w + Warmup + KillAfter; w < end; w++ {
		for _, d := range step(g, w, garbage()) {
			if d.Action == ActionKill {
				return w
			}
		}
	}
	t.Fatalf("no kill by window %d", w)
	return -1
}

// TestKillAfterConsecutiveNegatives: warmup windows are exempt, then
// KillAfter consecutive negative windows emit exactly one kill.
func TestKillAfterConsecutiveNegatives(t *testing.T) {
	g := New(Config{Enabled: true}, 1)
	var kills []Decision
	w := int64(0)
	for ; w < 10 && len(kills) == 0; w++ {
		for _, d := range step(g, w, garbage()) {
			if d.Action == ActionKill {
				kills = append(kills, d)
			}
		}
	}
	// The first Warmup windows are exempt (cs.windows must exceed
	// Warmup), so the streak builds over the next KillAfter windows.
	if len(kills) != 1 {
		t.Fatalf("%d kills, want exactly 1 (got %+v)", len(kills), kills)
	}
	if want := int64(Warmup + KillAfter - 1); kills[0].Window != want {
		t.Errorf("kill at window %d, want %d (%d warmup windows + streak of %d)",
			kills[0].Window, want, Warmup, KillAfter)
	}
	if kills[0].Reason != "garbage" {
		t.Errorf("kill reason %q, want garbage", kills[0].Reason)
	}
	// The kill deactivates the helper; with no revival configured the
	// governor stays silent for the rest of the run.
	for ; w < 10; w++ {
		if ds := step(g, w, &obs.WindowSample{}); len(ds) != 0 {
			t.Fatalf("window %d decisions %+v after the kill, want none", w, ds)
		}
	}
}

// TestHealthyInterruptsStreak: one good window resets the negative
// streak, so intermittent badness under KillAfter never kills.
func TestHealthyInterruptsStreak(t *testing.T) {
	g := New(Config{Enabled: true}, 1)
	for w := int64(0); w < 20; w++ {
		ws := garbage()
		if w%KillAfter == KillAfter-1 {
			ws = healthy(0)
		}
		for _, d := range step(g, w, ws) {
			if d.Action == ActionKill {
				t.Fatalf("kill at window %d despite streak never reaching %d", w, KillAfter)
			}
		}
	}
}

// TestRevivePeriod: with RevivePeriod set, a killed ghost comes back
// after the period, and MaxRespawns caps revivals.
func TestRevivePeriod(t *testing.T) {
	g := New(Config{Enabled: true, RevivePeriod: 3}, 1)
	killed := killAt(t, g, 0)
	for w := killed + 1; w < killed+3; w++ {
		if ds := step(g, w, &obs.WindowSample{}); len(ds) != 0 {
			t.Fatalf("window %d decisions %+v, want none yet", w, ds)
		}
	}
	ds := step(g, killed+3, &obs.WindowSample{})
	if len(ds) != 1 || ds[0].Action != ActionRespawn || ds[0].Reason != "revive-period" {
		t.Fatalf("window %d decisions %+v, want one revive-period respawn", killed+3, ds)
	}
	w := killed + 4
	for i := 1; i < MaxRespawns; i++ {
		w = killAt(t, g, w) + 3
		if ds := step(g, w, &obs.WindowSample{}); len(ds) != 1 || ds[0].Action != ActionRespawn {
			t.Fatalf("window %d decisions %+v, want respawn %d", w, ds, i+1)
		}
		w++
	}
	// Killed again, but all MaxRespawns are spent: no more revivals.
	killed = killAt(t, g, w)
	for w = killed + 1; w <= killed+10; w++ {
		if ds := step(g, w, &obs.WindowSample{}); len(ds) != 0 {
			t.Fatalf("window %d decisions %+v, want none (respawn cap spent)", w, ds)
		}
	}
}

// TestGovRespawnedResetsWarmup: a core-side PC-synced re-seed restarts
// the warmup clock, so a fresh ghost is not judged on the old one's
// streak.
func TestGovRespawnedResetsWarmup(t *testing.T) {
	g := New(Config{Enabled: true}, 1)
	// Warmup windows, then negative windows up to one short of a kill.
	w := int64(0)
	for ; w < Warmup+KillAfter-1; w++ {
		if ds := step(g, w, garbage()); len(ds) != 0 {
			t.Fatalf("window %d decisions %+v before the re-seed, want none", w, ds)
		}
	}
	// Re-seed: this window and the next ones are warmup again, and the
	// old streak is gone, so a kill needs a whole new streak.
	ws := &obs.WindowSample{HelperActive: true, GovRespawned: true}
	if ds := step(g, w, ws); len(ds) != 0 {
		t.Fatalf("decisions %+v right after re-seed, want none", ds)
	}
	seed := w
	for w = seed + 1; w < seed+Warmup+KillAfter-1; w++ {
		if ds := step(g, w, garbage()); len(ds) != 0 {
			t.Fatalf("window %d decisions %+v during renewed warmup, want none", w, ds)
		}
	}
	if ds := step(g, w, garbage()); len(ds) != 1 || ds[0].Action != ActionKill {
		t.Fatalf("window %d decisions %+v, want the fresh ghost's kill", w, ds)
	}
}

// TestSelfRetireMarksKilledUnderResync: with ResyncPC configured, a
// per-phase ghost that retired itself (inactive, but with evidence it
// lived) is marked down like a kill so the revival rules re-arm it.
func TestSelfRetireMarksKilledUnderResync(t *testing.T) {
	g := New(Config{Enabled: true, ResyncPC: 19, RevivePeriod: 1}, 1)
	// Ghost started and finished inside one window: inactive at the
	// flush, but it prefetched — evidence of a completed phase.
	ws := &obs.WindowSample{Prefetch: cache.PrefetchQuality{Issued: 40}}
	step(g, 0, ws)
	ds := step(g, 1, &obs.WindowSample{})
	if len(ds) != 1 || ds[0].Action != ActionRespawn || ds[0].Reason != "revive-period" {
		t.Fatalf("decisions %+v, want one revive-period respawn after self-retire", ds)
	}
	// Without ResyncPC the same stream is just a dead helper: no respawn
	// (it was never governor-killed).
	g2 := New(Config{Enabled: true, RevivePeriod: 1}, 1)
	step(g2, 0, ws)
	if ds := step(g2, 1, &obs.WindowSample{}); len(ds) != 0 {
		t.Fatalf("decisions %+v without ResyncPC, want none", ds)
	}
}

// retuner returns a retuning governor whose throttle window starts at
// tooFar/tooFar/2.
func retuner(tooFar int64) *Governor {
	return New(Config{Enabled: true, Retune: true, TooFarAddr: 1, CloseAddr: 2,
		TooFarInit: tooFar, CloseInit: tooFar / 2}, 1)
}

// TestRetuneDirectionsAndClamps: inaccurate-and-far halves the window,
// down to the MinTooFar clamp, with a cooldown between retunes.
func TestRetuneDirectionsAndClamps(t *testing.T) {
	far := healthy(0)
	far.PFAccuracy = 0.1
	far.Prefetch = cache.PrefetchQuality{Issued: 200, Redundant: 20, Timely: 30}
	far.GhostLeadP50 = 90 // way past TooFar/2: the lead is the problem
	g := retuner(96)
	ds := step(g, 0, far)
	if len(ds) != 1 || ds[0].Action != ActionRetune || ds[0].Reason != "inaccurate-far" ||
		ds[0].TooFar != 48 || ds[0].Close != 24 {
		t.Fatalf("decisions %+v, want inaccurate-far retune to 48/24", ds)
	}
	// Cooldown: identical windows produce no decision.
	for w := int64(1); w <= RetuneCooldown; w++ {
		if ds := step(g, w, far); len(ds) != 0 {
			t.Fatalf("window %d decisions %+v during cooldown, want none", w, ds)
		}
	}
	if ds := step(g, RetuneCooldown+1, far); len(ds) != 1 || ds[0].TooFar != 24 {
		t.Fatalf("decisions %+v after cooldown, want retune to 24", ds)
	}
	// Halving clamps at MinTooFar.
	ds = step(retuner(MinTooFar*3/2), 0, far)
	if len(ds) != 1 || ds[0].TooFar != MinTooFar {
		t.Fatalf("decisions %+v, want clamp at %d", ds, MinTooFar)
	}
}

// TestRetuneNeverWidens: accurate prefetches that land late, from a
// ghost held well inside its throttle window, leave TooFar alone — a
// retune only narrows the window.
func TestRetuneNeverWidens(t *testing.T) {
	late := healthy(0)
	late.PFAccuracy, late.PFTimeliness = 0.8, 0.2
	late.GhostLeadP95 = 50 // under TooFar: the throttle is the limiter
	g := retuner(96)
	for w := int64(0); w < 5*RetuneCooldown; w++ {
		if ds := step(g, w, late); len(ds) != 0 {
			t.Fatalf("window %d decisions %+v on accurate-late windows, want none", w, ds)
		}
	}
	if g.cores[0].tooFar != 96 || g.cores[0].close != 48 {
		t.Errorf("throttle window %d/%d, want TooFarInit/CloseInit 96/48",
			g.cores[0].tooFar, g.cores[0].close)
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config: %v", err)
	}
	if err := (Config{Enabled: true, Retune: true}).Validate(); err == nil {
		t.Error("retune without addresses validated")
	}
	if err := (Config{Enabled: true, RevivePeriod: -1}).Validate(); err == nil {
		t.Error("negative RevivePeriod validated")
	}
	ok := Config{Enabled: true, Retune: true, TooFarAddr: 1, CloseAddr: 2,
		TooFarInit: 96, CloseInit: 48}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid retune config: %v", err)
	}
}
