package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"ghostthread/internal/obs"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// Workload kinds: which product entry point a workload drives.
const (
	kindFig6     = "fig6"     // harness.RunMatrixWorkers, one worker
	kindFig9     = "fig9"     // workloads.NewMulti + sim.New/Load/Run
	kindGoverned = "governed" // harness.GovernorExperiment
)

const (
	govWindow = 20000 // telemetry window W of the governed workload
	fig9Cores = 4
)

// benchWorkload is one named workload of the benchmark.
type benchWorkload struct {
	Name    string
	Kind    string
	Rows    []string // registry workloads (fig9: kernel.graph pairs)
	Machine string   // "idle" (sim.DefaultConfig) or "busy" (sim.BusyConfig)
	Ledger  bool     // cross-check rows against the BENCH_fig6.json ledger
}

var benchWorkloads = []benchWorkload{
	{Name: "fig6-membound", Kind: kindFig6, Machine: "idle", Ledger: true,
		Rows: []string{"camel", "kangaroo", "hj2", "hj8", "bfs.kron", "bfs.urand"}},
	{Name: "fig6-compute", Kind: kindFig6, Machine: "idle",
		Rows: []string{"tc.kron", "pr.road", "cc.road", "tc.road"}},
	{Name: "fig9-4core", Kind: kindFig9, Machine: "idle",
		Rows: []string{"bfs.kron", "cc.urand", "pr.urand"}},
	{Name: "governed-busy", Kind: kindGoverned, Machine: "busy",
		Rows: []string{"bfs.kron", "hj8", "camel"}},
}

func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range benchWorkloads {
		if w.Name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// config is the workload's machine. The governed workload runs the busy
// server with the shadow oracle on; its telemetry sink is added by the
// caller. The modelled caches start cold in every run.
func (w benchWorkload) config() sim.Config {
	if w.Machine == "busy" {
		cfg := sim.BusyConfig()
		cfg.Shadow.Enabled = true
		return cfg
	}
	return sim.DefaultConfig()
}

// workers is the number of goroutines that simulate at once.
func (w benchWorkload) workers() int {
	if w.Kind == kindFig9 {
		return min(fig9Cores, runtime.GOMAXPROCS(0))
	}
	return 1
}

// multiConfig is one figure-9 build: a kernel.graph pair at fig9Cores
// cores under one technique.
type multiConfig struct {
	Row  string
	Tech workloads.MultiTech
	Inst *workloads.MultiInstance
	Snap []int64
}

func (m multiConfig) key() string { return m.Row + "/" + m.Tech.String() }

// setup does the construction a workload needs before its measured pass:
// the figure-9 builds (baseline and ghost per row). The fig6 and governed
// workloads build inside their entry points, so they set up nothing.
func setup(w benchWorkload, tr *tracer) ([]multiConfig, error) {
	if w.Kind != kindFig9 {
		return nil, nil
	}
	var out []multiConfig
	for _, row := range w.Rows {
		kernel, graph, ok := strings.Cut(row, ".")
		if !ok {
			return nil, fmt.Errorf("fig9 row %q is not kernel.graph", row)
		}
		for _, tech := range []workloads.MultiTech{workloads.MultiBaseline, workloads.MultiGhost} {
			end := tr.begin("workloads.build", row)
			inst, err := workloads.NewMulti(kernel, graph, fig9Cores, tech, workloads.DefaultOptions())
			end()
			if err != nil {
				return nil, err
			}
			out = append(out, multiConfig{Row: row, Tech: tech, Inst: inst, Snap: inst.Mem.Snapshot()})
		}
	}
	return out, nil
}

// runMulti runs one multi-core build the way the figure-9 harness does
// and validates its result. The returned duration covers sim.New, Load
// and Run only.
func runMulti(m multiConfig, cfg sim.Config) (sim.Result, time.Duration, error) {
	m.Inst.Mem.Restore(m.Snap)
	cfg.Cores = m.Inst.Cores
	start := time.Now()
	s := sim.New(cfg, m.Inst.Mem)
	for c := range m.Inst.Per {
		s.Load(c, m.Inst.Per[c].Main, m.Inst.Per[c].Helpers)
	}
	res, err := s.Run()
	d := time.Since(start)
	if err != nil {
		return res, d, fmt.Errorf("%s: %w", m.key(), err)
	}
	if err := m.Inst.Check(m.Inst.Mem); err != nil {
		return res, d, fmt.Errorf("%s: %w", m.key(), err)
	}
	return res, d, nil
}

// windowSink is the governed workload's NDJSON telemetry sink (encoding to
// io.Discard). It also counts the windows and the host time spent inside
// it, and sums each governed run's issued prefetches — runs are sequential
// and each starts at window 0 of core 0.
type windowSink struct {
	enc       *json.Encoder
	busy      time.Duration
	windows   int64
	runIssued []int64
	err       error
}

func newWindowSink() *windowSink {
	return &windowSink{enc: json.NewEncoder(io.Discard)}
}

func (s *windowSink) observe(ws obs.WindowSample) {
	start := time.Now()
	if len(s.runIssued) == 0 || (ws.Window == 0 && ws.Core == 0) {
		s.runIssued = append(s.runIssued, 0)
	}
	s.runIssued[len(s.runIssued)-1] += ws.Prefetch.Issued
	s.windows++
	if err := s.enc.Encode(ws); err != nil && s.err == nil {
		s.err = err
	}
	s.busy += time.Since(start)
}

// stamp identifies the host and settings a result was measured under.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Workers    int    `json:"workers"`
	CPUModel   string `json:"cpu_model"`
	Machine    string `json:"machine"`
}

func newStamp(w benchWorkload) stamp {
	return stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    w.workers(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Machine:    w.Machine,
	}
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when it cannot be read.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	var kb float64
	if _, err := fmt.Sscanf(procField("/proc/self/status", "VmHWM"), "%g kB", &kb); err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	return kb / 1024
}
