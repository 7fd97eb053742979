// Command gtmon serves live run introspection while sweeps execute: it
// tails a windowed-telemetry NDJSON stream (gtrun -window-out, or
// ghostbench -experiment resilience -window-out) and exposes
//
//	/metrics  — Prometheus text exposition, latest sample per series
//	/healthz  — liveness
//
// while the producing run is still going:
//
//	ghostbench -experiment resilience -window 50000 -window-out /tmp/win.ndjson &
//	gtmon -in /tmp/win.ndjson -addr :9123
//	curl localhost:9123/metrics
//
// With -once it ingests the file as it stands, prints the metrics text
// to stdout, and exits (used by `make metrics-smoke`).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"ghostthread/internal/cli"
)

const tool = cli.Tool("gtmon")

func main() {
	var (
		in   = flag.String("in", "", "telemetry NDJSON file to tail (required)")
		addr = flag.String("addr", ":9123", "HTTP listen address")
		once = flag.Bool("once", false, "ingest the file once, print /metrics text to stdout, exit")
		poll = flag.Duration("poll", 200*time.Millisecond, "tail poll interval")
	)
	tool.Parse()
	if *in == "" {
		tool.Check(cli.Usagef("-in is required"))
	}

	mon := NewMonitor()

	if *once {
		f, err := os.Open(*in)
		tool.Check(err)
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			// Skipped bad lines are counted by the monitor; a crash-safe
			// stream may legitimately end mid-line.
			_ = mon.Ingest(sc.Bytes())
		}
		tool.Check(sc.Err())
		fmt.Print(mon.PrometheusText())
		return
	}

	go func() { tool.Check(http.ListenAndServe(*addr, mon.Handler())) }()
	fmt.Fprintf(os.Stderr, "gtmon: serving /metrics on %s, tailing %s\n", *addr, *in)
	tail(mon, *in, *poll)
}

// tail follows the NDJSON file forever: it waits for the file to appear,
// then ingests each complete line as the producer appends it, surviving
// partial trailing lines (the producer writes crash-safe unbuffered
// lines, but a read can still race mid-line).
func tail(mon *Monitor, path string, poll time.Duration) {
	var f *os.File
	for {
		var err error
		if f, err = os.Open(path); err == nil {
			break
		}
		time.Sleep(poll)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var partial []byte
	for {
		chunk, err := r.ReadBytes('\n')
		partial = append(partial, chunk...)
		switch err {
		case nil:
			_ = mon.Ingest(partial)
			partial = partial[:0]
		case io.EOF:
			time.Sleep(poll)
		default:
			tool.Check(err)
		}
	}
}
