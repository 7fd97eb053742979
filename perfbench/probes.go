package main

import (
	"fmt"
	"math"
	"time"

	"ghostthread/internal/cache"
	"ghostthread/internal/isa"
	"ghostthread/internal/mem"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// The probes run after the walk and are excluded from its time. Each times
// one layer in isolation, from outside it.

// loopStats is what the benchmark's own step loop measured.
type loopStats struct {
	Cycles    int64 // the machine's finishing cycle, as System.Run reports it
	Committed int64 // instructions committed, all contexts
	Stepped   int64 // machine cycles the loop stepped (the rest were skipped)
	Steps     int64 // Core.Step calls
	D         time.Duration
}

// stepLoop drives s's cores serially on the schedule of System.Run's
// reference loop — step every unfinished core, then skip the whole machine
// to just before the earliest next event — without telemetry or any
// observer.
func stepLoop(s *sim.System, maxCycles int64) (loopStats, error) {
	var st loopStats
	n := s.Cores()
	finish := make([]int64, n)
	for i := range finish {
		finish[i] = -1
	}
	start := time.Now()
	var now int64
	for {
		allDone := true
		for i := 0; i < n; i++ {
			c := s.Core(i)
			if c.Done() {
				if finish[i] < 0 {
					finish[i] = c.Now()
				}
				continue
			}
			allDone = false
			c.Step()
			st.Steps++
		}
		now++
		st.Stepped++
		if allDone {
			break
		}
		if now >= maxCycles {
			return st, &sim.BudgetError{Limit: maxCycles}
		}
		next := int64(math.MaxInt64)
		for i := 0; i < n; i++ {
			if c := s.Core(i); !c.Done() {
				next = min(next, c.NextEvent())
			}
		}
		if next == math.MaxInt64 {
			continue
		}
		if target := min(next-1, maxCycles-1); target > now {
			for i := 0; i < n; i++ {
				if c := s.Core(i); !c.Done() {
					c.SkipTo(target)
				}
			}
			now = target
		}
	}
	st.D = time.Since(start)
	for i := 0; i < n; i++ {
		c := s.Core(i)
		if err := c.Err(); err != nil {
			return st, err
		}
		fin := finish[i]
		if fin < 0 {
			fin = c.Now()
		}
		st.Cycles = max(st.Cycles, fin)
		st.Committed += c.Committed(0) + c.Committed(1)
	}
	return st, nil
}

// probeLoops drives every loop target and checks that the loop
// reproduces System.Run's cycles and committed instructions.
func probeLoops(targets []loopTarget) (st loopStats, runD time.Duration, simCycles int64, err error) {
	for _, t := range targets {
		t.Mem.Restore(t.Snap)
		s := sim.New(t.Cfg, t.Mem)
		for c, p := range t.Progs {
			s.Load(c, p.Main, p.Helpers)
		}
		got, lerr := stepLoop(s, t.Cfg.MaxCycles)
		if lerr != nil {
			return st, runD, simCycles, fmt.Errorf("step loop on %s: %w", t.Name, lerr)
		}
		if got.Cycles != t.Res.Cycles || got.Committed != t.Res.Committed {
			return st, runD, simCycles, fmt.Errorf("step loop on %s: %d cycles / %d committed, System.Run %d / %d",
				t.Name, got.Cycles, got.Committed, t.Res.Cycles, t.Res.Committed)
		}
		st.Committed += got.Committed
		st.Stepped += got.Stepped
		st.Steps += got.Steps
		st.D += got.D
		simCycles += got.Cycles
		runD += t.RunD
	}
	return st, runD, simCycles, nil
}

// recordingMemory is the functional memory with every demand word address
// recorded, in program order.
type recordingMemory struct {
	m     *mem.Memory
	addrs []int64
}

func (r *recordingMemory) LoadWord(addr int64) int64 {
	r.addrs = append(r.addrs, addr)
	return r.m.LoadWord(addr)
}

func (r *recordingMemory) StoreWord(addr, v int64) {
	r.addrs = append(r.addrs, addr)
	r.m.StoreWord(addr, v)
}

func (r *recordingMemory) Size() int64 { return r.m.Size() }

// replayStats is what the interpreter, cache and memory-controller probes
// measured.
type replayStats struct {
	InterpSteps int64
	InterpD     time.Duration
	Accesses    int64
	CacheD      time.Duration
	Requests    int64
	MemD        time.Duration
}

const interpMaxSteps = 1 << 40

// probeReplay interprets each baseline (timed), records its demand
// address stream, replays the stream through a fresh cache hierarchy of
// the workload's machine, and replays the accesses that reached DRAM
// through a fresh memory controller. The replay is an in-order blocking
// model: each access issues when the previous one completes.
func probeReplay(targets []interpTarget) (replayStats, error) {
	var st replayStats
	for _, t := range targets {
		t.Mem.Restore(t.Snap)
		start := time.Now()
		ir, err := isa.Interp(t.Main, t.Mem, t.Help, interpMaxSteps)
		st.InterpD += time.Since(start)
		if err != nil {
			return st, fmt.Errorf("interpreting %s: %w", t.Name, err)
		}
		st.InterpSteps += ir.Steps

		t.Mem.Restore(t.Snap)
		rec := &recordingMemory{m: t.Mem}
		if _, err := isa.Interp(t.Main, rec, t.Help, interpMaxSteps); err != nil {
			return st, fmt.Errorf("recording %s: %w", t.Name, err)
		}
		t.Mem.Restore(t.Snap)

		h := cache.NewHierarchy(t.Cfg.Hier, cache.New("LLC", t.Cfg.LLC), mem.NewController(t.Cfg.MemCtl))
		dram := make([]int64, 0, len(rec.addrs)/8)
		var now int64
		start = time.Now()
		for _, a := range rec.addrs {
			r := h.DemandAccess(a, now)
			if r.Level == cache.LevelDRAM {
				dram = append(dram, now+t.Cfg.Hier.LLCLat)
			}
			now = r.CompleteAt
		}
		st.CacheD += time.Since(start)
		st.Accesses += int64(len(rec.addrs))

		mc := mem.NewController(t.Cfg.MemCtl)
		start = time.Now()
		for _, at := range dram {
			mc.Schedule(at)
		}
		st.MemD += time.Since(start)
		st.Requests += int64(len(dram))
	}
	return st, nil
}

// fig9InterpTargets builds the single-core registry version of each
// figure-9 row: the multi-core baselines synchronize through barriers,
// which the functional interpreter cannot run one core at a time.
func fig9InterpTargets(rows []string, cfg sim.Config) ([]interpTarget, error) {
	var out []interpTarget
	for _, row := range rows {
		build, err := workloads.Lookup(row)
		if err != nil {
			return nil, err
		}
		inst := build(workloads.DefaultOptions())
		out = append(out, interpTarget{Name: row, Cfg: cfg, Mem: inst.Mem, Snap: inst.Mem.Snapshot(),
			Main: inst.Baseline.Main, Help: inst.Baseline.Helpers})
	}
	return out, nil
}

// probeObservers times each manual ghost of the governed workload twice
// on the same machine: with windowed telemetry (into the benchmark's
// NDJSON sink) and the shadow oracle, and with neither. Observation must
// not change the simulated cycles.
func probeObservers(w benchWorkload) (observed, unobserved time.Duration, err error) {
	for _, name := range w.Rows {
		build, err := workloads.Lookup(name)
		if err != nil {
			return 0, 0, err
		}
		opts := workloads.DefaultOptions()
		opts.Sync.Trace = true
		inst := build(opts)
		if inst.Ghost == nil {
			continue
		}
		snap := inst.Mem.Snapshot()

		plain := w.config()
		plain.Shadow.Enabled = false
		watched := w.config()
		watched.Shadow.Enabled = true
		watched.Telemetry.WindowCycles = govWindow
		watched.Telemetry.GhostCounterAddr = inst.Counters.GhostAddr
		watched.Telemetry.Sink = newWindowSink().observe

		var cycles [2]int64
		for i, cfg := range []sim.Config{plain, watched} {
			inst.Mem.Restore(snap)
			start := time.Now()
			res, err := sim.RunProgram(cfg, inst.Mem, inst.Ghost.Main, inst.Ghost.Helpers)
			d := time.Since(start)
			if err != nil {
				return 0, 0, fmt.Errorf("observer twin %s: %w", name, err)
			}
			cycles[i] = res.Cycles
			if i == 0 {
				unobserved += d
			} else {
				observed += d
			}
		}
		if cycles[0] != cycles[1] {
			return 0, 0, fmt.Errorf("observer twin %s: %d cycles observed, %d unobserved", name, cycles[1], cycles[0])
		}
	}
	return observed, unobserved, nil
}
