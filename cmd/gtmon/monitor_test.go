package main

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"ghostthread/internal/obs"
)

func monLine(t *testing.T, row obs.MonitorRow) []byte {
	t.Helper()
	b, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMonitorIngestAndPrometheus(t *testing.T) {
	m := NewMonitor()
	// Two samples of the same series: /metrics must expose only the
	// latest; plus one untagged (bare gtrun) series.
	if err := m.Ingest(monLine(t, obs.MonitorRow{
		Workload: "camel", Variant: "ghost", Level: "light",
		WindowSample: obs.WindowSample{Window: 0, Core: 0, IPC: 0.5},
	})); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest(monLine(t, obs.MonitorRow{
		Workload: "camel", Variant: "ghost", Level: "light",
		WindowSample: obs.WindowSample{Window: 1, Core: 0, IPC: 0.75},
	})); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest(monLine(t, obs.MonitorRow{
		WindowSample: obs.WindowSample{Window: 3, Core: 2, IPC: 1.25},
	})); err != nil {
		t.Fatal(err)
	}
	if err := m.Ingest([]byte("   \n")); err != nil {
		t.Errorf("blank line must be ignored: %v", err)
	}
	if err := m.Ingest([]byte(`{"window": tru`)); err == nil {
		t.Error("truncated line must report an error")
	}
	text := m.PrometheusText()
	for _, want := range []string{
		`ghostsim_ipc{core="0",level="light",variant="ghost",workload="camel"} 0.75`,
		`ghostsim_window{core="0",level="light",variant="ghost",workload="camel"} 1`,
		`ghostsim_ipc{core="2"} 1.25`, // untagged series keeps only the core label
		"# TYPE ghostsim_ipc gauge",
		"ghostsim_samples_ingested_total 3",
		"ghostsim_bad_lines_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("PrometheusText missing %q\n%s", want, text)
		}
	}
	if strings.Contains(text, "0.5") {
		t.Error("stale sample value leaked into /metrics")
	}
}

func TestMonitorHandler(t *testing.T) {
	m := NewMonitor()
	for i := 0; i < 4; i++ {
		if err := m.Ingest(monLine(t, obs.MonitorRow{
			Workload:     "bfs.kron",
			WindowSample: obs.WindowSample{Window: int64(i)},
		})); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	for path, wantBody := range map[string]string{
		"/metrics": "ghostsim_samples_ingested_total 4",
		"/healthz": "ok",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("%s returned %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), wantBody) {
			t.Errorf("%s body missing %q:\n%s", path, wantBody, body)
		}
	}
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics content-type = %q", ct)
	}
}
