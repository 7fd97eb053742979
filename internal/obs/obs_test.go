package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"ghostthread/internal/isa"
)

func TestRecorderBasic(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Cycle: int64(i), Kind: KindPrefetch})
	}
	if r.Len() != 5 || r.Emitted() != 5 || r.Dropped() != 0 {
		t.Fatalf("len=%d emitted=%d dropped=%d, want 5/5/0", r.Len(), r.Emitted(), r.Dropped())
	}
	ev := r.Events()
	for i, e := range ev {
		if e.Cycle != int64(i) {
			t.Fatalf("event %d has cycle %d, want emission order preserved", i, e.Cycle)
		}
	}
}

func TestRecorderWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Cycle: int64(i)})
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	ev := r.Events()
	for i, e := range ev {
		if want := int64(6 + i); e.Cycle != want {
			t.Fatalf("event %d has cycle %d, want %d (oldest retained first)", i, e.Cycle, want)
		}
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	r := NewRecorder(0)
	if got := len(r.buf); got != DefaultCapacity {
		t.Fatalf("capacity = %d, want DefaultCapacity %d", got, DefaultCapacity)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	events := []Event{
		{Cycle: 10, Kind: KindGhostSpawn, Arg: 1},
		{Cycle: 12, Dur: 30, Kind: KindFill, Arg: 0x40, Level: 3, Ctx: 1},
		{Cycle: 15, Dur: 20, Kind: KindSerialize, Arg: 7, Ctx: 1},
		{Cycle: 40, Kind: KindSyncSkip, Arg: 3, Ctx: 1},
		{Cycle: 50, Dur: 5, Kind: KindROBStall, Arg: 2},
		{Cycle: 60, Kind: KindGhostJoin},
		{Cycle: 10, Dur: 50, Kind: KindGhostLife, Ctx: 1},
	}
	data, err := ChromeTraceWindows(events, nil, "camel/ghost")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(data); err != nil {
		t.Fatalf("exporter output fails its own validator: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			TID   int    `json:"tid"`
			Dur   int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	// 7 events + 4 metadata records for core 0.
	if len(doc.TraceEvents) != 11 {
		t.Fatalf("trace has %d events, want 11", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for _, e := range doc.TraceEvents {
		byName[e.Name]++
		switch e.Name {
		case "serialize-throttle":
			if e.Phase != "X" || e.Dur != 20 {
				t.Fatalf("serialize span = %+v", e)
			}
		case "DRAM-fill":
			if e.TID != trackMem {
				t.Fatalf("fill on tid %d, want mem track %d", e.TID, trackMem)
			}
		case "ghost-active":
			if e.TID != trackGhost {
				t.Fatalf("ghost-active on tid %d, want ghost track %d", e.TID, trackGhost)
			}
		case "ghost-spawn", "ghost-join":
			if e.Phase != "i" || e.TID != trackMain {
				t.Fatalf("%s = %+v, want instant on main track", e.Name, e)
			}
		}
	}
	for _, want := range []string{"ghost-spawn", "ghost-join", "ghost-active",
		"serialize-throttle", "sync-skip", "rob-stall", "DRAM-fill"} {
		if byName[want] == 0 {
			t.Fatalf("trace is missing a %q event (have %v)", want, byName)
		}
	}
}

func TestValidateChromeRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"not json", `{`, "not valid JSON"},
		{"no traceEvents", `{"foo": 1}`, "no traceEvents"},
		{"missing name", `{"traceEvents":[{"ph":"i","pid":0,"tid":0,"ts":1,"s":"t"}]}`, `"name"`},
		{"missing ph", `{"traceEvents":[{"name":"x","pid":0,"tid":0,"ts":1}]}`, `"ph"`},
		{"unknown phase", `{"traceEvents":[{"name":"x","ph":"Q","pid":0,"tid":0,"ts":1}]}`, "unknown phase"},
		{"missing ts", `{"traceEvents":[{"name":"x","ph":"i","pid":0,"tid":0}]}`, `"ts"`},
		{"negative dur", `{"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":0,"ts":1,"dur":-5}]}`, "negative dur"},
		{"backwards ts", `{"traceEvents":[
			{"name":"a","ph":"i","pid":0,"tid":0,"ts":10,"s":"t"},
			{"name":"b","ph":"i","pid":0,"tid":0,"ts":9,"s":"t"}]}`, "goes backwards"},
	}
	for _, c := range cases {
		err := ValidateChrome([]byte(c.data))
		if err == nil {
			t.Fatalf("%s: validator accepted invalid trace", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}

	// Different tracks may interleave timestamps freely.
	ok := `{"traceEvents":[
		{"name":"a","ph":"i","pid":0,"tid":0,"ts":10,"s":"t"},
		{"name":"b","ph":"i","pid":0,"tid":1,"ts":5,"s":"t"}]}`
	if err := ValidateChrome([]byte(ok)); err != nil {
		t.Fatalf("cross-track timestamps rejected: %v", err)
	}
}

func TestFoldedStacks(t *testing.T) {
	p := &isa.Program{
		Name: "toy prog",
		Code: []isa.Instr{
			{Op: isa.OpAddI, Loop: -1},
			{Op: isa.OpLoad, Loop: 1},
			{Op: isa.OpHalt, Loop: -1},
		},
		Loops: []isa.Loop{
			{ID: 0, Name: "outer", Func: "kernel", Parent: -1},
			{ID: 1, Name: "inner", Func: "kernel", Parent: 0},
		},
	}
	out := FoldedStacks(p, []int64{0, 42, 7})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 (zero-weight pcs skipped):\n%s", len(lines), out)
	}
	// pc 1 is inside kernel.inner inside kernel.outer; outermost frame first.
	if !strings.HasPrefix(lines[0], "toyprog;kernel.outer;kernel.inner;pc0001_") {
		t.Fatalf("line 0 = %q, want toyprog;kernel.outer;kernel.inner;pc0001_…", lines[0])
	}
	if !strings.HasSuffix(lines[0], " 42") {
		t.Fatalf("line 0 = %q, want weight 42 suffix", lines[0])
	}
	if !strings.HasPrefix(lines[1], "toyprog;pc0002_") || !strings.HasSuffix(lines[1], " 7") {
		t.Fatalf("line 1 = %q, want loop-free frame with weight 7", lines[1])
	}
	for _, l := range lines {
		if strings.Count(l, " ") != 1 {
			t.Fatalf("folded line %q has embedded spaces beyond the weight separator", l)
		}
	}
}
