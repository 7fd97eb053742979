package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"ghostthread/internal/obs"
)

// monKey identifies one live series: a (run identity, core) pair.
type monKey struct {
	workload, variant, level string
	core                     int
}

// Monitor aggregates a windowed-telemetry NDJSON stream into a live
// HTTP surface: Prometheus text exposition on /metrics (latest sample
// per series, as gauges). Ingest is safe to call concurrently with the
// handlers.
type Monitor struct {
	mu       sync.Mutex
	latest   map[monKey]obs.MonitorRow
	order    []monKey // insertion order of first sight, for stable output
	ingested int64
	badLines int64
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{latest: map[monKey]obs.MonitorRow{}}
}

// Ingest parses one NDJSON line and folds it into the live state. Blank
// lines are ignored; unparseable lines are counted and skipped (a
// crash-safe stream may end mid-line).
func (m *Monitor) Ingest(line []byte) error {
	trimmed := strings.TrimSpace(string(line))
	if trimmed == "" {
		return nil
	}
	var row obs.MonitorRow
	if err := json.Unmarshal([]byte(trimmed), &row); err != nil {
		m.mu.Lock()
		m.badLines++
		m.mu.Unlock()
		return fmt.Errorf("gtmon: bad telemetry line: %w", err)
	}
	k := monKey{row.Workload, row.Variant, row.Level, row.Core}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, seen := m.latest[k]; !seen {
		m.order = append(m.order, k)
	}
	m.latest[k] = row
	m.ingested++
	return nil
}

// PrometheusText renders the latest sample of every series in the
// Prometheus text exposition format (all gauges, plus the ingest
// counters). Series are emitted in first-seen order per metric, so
// output is deterministic for a deterministic stream.
func (m *Monitor) PrometheusText() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	metrics := []struct {
		name, help string
		value      func(r obs.MonitorRow) float64
	}{
		{"ghostsim_window", "Latest flushed window index.", func(r obs.MonitorRow) float64 { return float64(r.Window) }},
		{"ghostsim_ipc", "Main-context IPC over the latest window.", func(r obs.MonitorRow) float64 { return r.IPC }},
		{"ghostsim_serialize_stall_frac", "Serialize-throttle stall fraction of the latest window.", func(r obs.MonitorRow) float64 { return r.SerializeStallFrac }},
		{"ghostsim_ghost_lead_mean", "Mean ghost lead (iterations) over the latest window.", func(r obs.MonitorRow) float64 { return r.GhostLeadMean }},
		{"ghostsim_ghost_lead_p95", "p95 ghost lead (iterations) over the latest window.", func(r obs.MonitorRow) float64 { return float64(r.GhostLeadP95) }},
		{"ghostsim_pf_accuracy", "Prefetch accuracy over the latest window.", func(r obs.MonitorRow) float64 { return r.PFAccuracy }},
		{"ghostsim_pf_coverage", "Prefetch coverage over the latest window.", func(r obs.MonitorRow) float64 { return r.PFCoverage }},
		{"ghostsim_pf_timeliness", "Prefetch timeliness over the latest window.", func(r obs.MonitorRow) float64 { return r.PFTimeliness }},
		{"ghostsim_mshr_avg", "Mean MSHR occupancy at miss allocation over the latest window.", func(r obs.MonitorRow) float64 { return r.MSHRAvg }},
	}
	for _, met := range metrics {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", met.name, met.help, met.name)
		for _, k := range m.order {
			r := m.latest[k]
			fmt.Fprintf(&b, "%s{%s} %g\n", met.name, labels(k), met.value(r))
		}
	}
	fmt.Fprintf(&b, "# HELP ghostsim_samples_ingested_total Telemetry samples ingested.\n# TYPE ghostsim_samples_ingested_total counter\nghostsim_samples_ingested_total %d\n", m.ingested)
	fmt.Fprintf(&b, "# HELP ghostsim_bad_lines_total Unparseable telemetry lines skipped.\n# TYPE ghostsim_bad_lines_total counter\nghostsim_bad_lines_total %d\n", m.badLines)
	return b.String()
}

// labels renders a series' Prometheus label set.
func labels(k monKey) string {
	parts := make([]string, 0, 4)
	if k.workload != "" {
		parts = append(parts, fmt.Sprintf("workload=%q", k.workload))
	}
	if k.variant != "" {
		parts = append(parts, fmt.Sprintf("variant=%q", k.variant))
	}
	if k.level != "" {
		parts = append(parts, fmt.Sprintf("level=%q", k.level))
	}
	parts = append(parts, fmt.Sprintf("core=\"%d\"", k.core))
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Handler serves the live surfaces: /metrics (Prometheus text) and
// /healthz.
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, m.PrometheusText())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}
