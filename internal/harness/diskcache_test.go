package harness

// diskcache_test.go — white-box tests for the on-disk profile cache:
// round-trip fidelity, eviction of corrupt and stale blobs, and the
// end-to-end disk hit through profileWorkload's memo.

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"ghostthread/internal/profile"
	"ghostthread/internal/sim"
	"ghostthread/internal/workloads"
)

// cacheDir points the disk cache at a fresh temp directory for the test
// and restores the disabled state afterwards.
func cacheDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := SetProfileCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { SetProfileCacheDir("") })
	return dir
}

// testKey builds the profKey profileWorkload uses for the default
// machine, varied by workload name.
func testKey(workload string) profKey {
	cfg := sim.DefaultConfig()
	return profKey{
		workload:  workload,
		cores:     cfg.Cores,
		cpu:       cfg.CPU,
		hier:      cfg.Hier,
		llc:       cfg.LLC,
		memCtl:    cfg.MemCtl,
		maxCycles: cfg.MaxCycles,
		cycleStep: cfg.CycleStep,
		fault:     cfg.Fault,
		governor:  cfg.Governor,
	}
}

func testReport() *profile.Report {
	return &profile.Report{
		TotalCycles: 12345,
		TotalStall:  678,
		Instrs:      []profile.InstrStat{{PC: 0, Executions: 9, StallCycles: 4, LoopID: -1}},
		FuncStall:   map[string]int64{"kernel": 678},
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	cacheDir(t)
	key := testKey("roundtrip")
	if diskCacheLoad(key) != nil {
		t.Fatal("load on empty cache returned a report")
	}
	rep := testReport()
	diskCacheStore(key, rep)
	got := diskCacheLoad(key)
	if got == nil {
		t.Fatal("load after store missed")
	}
	if !reflect.DeepEqual(rep, got) {
		t.Errorf("round trip mutated the report\n put: %+v\n got: %+v", rep, got)
	}
}

// TestDiskCacheCorruptBlobEvicted overwrites a stored blob with garbage
// and checks that load both misses and deletes the file, so the slot
// heals on the next store.
func TestDiskCacheCorruptBlobEvicted(t *testing.T) {
	cacheDir(t)
	key := testKey("corrupt")
	diskCacheStore(key, testReport())
	path := diskCachePath(renderKey(key))
	if err := os.WriteFile(path, []byte("not a JSON blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if diskCacheLoad(key) != nil {
		t.Error("corrupt blob decoded to a report")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt blob was not evicted: stat err = %v", err)
	}
	// The slot is usable again after eviction.
	diskCacheStore(key, testReport())
	if diskCacheLoad(key) == nil {
		t.Error("slot did not heal after eviction")
	}
}

// TestDiskCacheStaleKeyEvicted places a valid blob for one key under
// another key's filename (what a hash collision or a mangled cache
// directory would produce) and checks that the key check rejects and
// evicts it.
func TestDiskCacheStaleKeyEvicted(t *testing.T) {
	cacheDir(t)
	keyA, keyB := testKey("stale-a"), testKey("stale-b")
	pathB := diskCachePath(renderKey(keyB))
	writeBlob(t, pathB, diskBlob{Version: diskCacheVersion, Key: renderKey(keyA), Report: *testReport()})
	if diskCacheLoad(keyB) != nil {
		t.Error("blob stored under a mismatched key was returned")
	}
	if _, err := os.Stat(pathB); !os.IsNotExist(err) {
		t.Errorf("stale-key blob was not evicted: stat err = %v", err)
	}
}

// TestDiskCacheVersionMismatchEvicted writes a blob with a future format
// version at the correct path and checks it is treated as stale.
func TestDiskCacheVersionMismatchEvicted(t *testing.T) {
	cacheDir(t)
	key := testKey("versioned")
	rendered := renderKey(key)
	path := diskCachePath(rendered)
	blob := diskBlob{Version: diskCacheVersion + 1, Key: rendered, Report: *testReport()}
	writeBlob(t, path, blob)
	if diskCacheLoad(key) != nil {
		t.Error("version-mismatched blob was returned")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("version-mismatched blob was not evicted: stat err = %v", err)
	}
}

// writeBlob hand-writes blob at path in the cache's JSON layout.
func writeBlob(t *testing.T, path string, blob diskBlob) {
	t.Helper()
	b, err := json.Marshal(&blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDiskCacheDisabled(t *testing.T) {
	SetProfileCacheDir("")
	key := testKey("disabled")
	diskCacheStore(key, testReport()) // must be a no-op, not a panic
	if diskCacheLoad(key) != nil {
		t.Error("disabled cache returned a report")
	}
}

// TestProfileWorkloadDiskHit drives the full path: a first
// profileWorkload call runs the profiler and stores the report; after
// the in-process memo is wiped (simulating a new process), a second call
// must be served from disk without re-profiling, bit-identically.
func TestProfileWorkloadDiskHit(t *testing.T) {
	cacheDir(t)
	build, err := workloads.Lookup("camel")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()

	profMu.Lock()
	profCache = map[profKey]*profEntry{}
	profMu.Unlock()

	before := profileRuns.Load()
	first, err := profileWorkload("camel", build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := profileRuns.Load() - before; got != 1 {
		t.Fatalf("cold call ran %d profiles, want 1", got)
	}

	// New process: the in-memory memo is gone, the disk cache is not.
	profMu.Lock()
	profCache = map[profKey]*profEntry{}
	profMu.Unlock()

	second, err := profileWorkload("camel", build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := profileRuns.Load() - before; got != 1 {
		t.Fatalf("warm call re-profiled: %d total runs, want 1", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("disk-cached report differs from the freshly profiled one")
	}
}

// TestDiskCacheRealReport round-trips a real profiling report, program
// included, through the JSON blob: a hand-made report exercises no
// instruction flags, loop forest or per-loop load lists.
func TestDiskCacheRealReport(t *testing.T) {
	cacheDir(t)
	const name = "bfs.kron"
	build, err := workloads.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(name)
	profMu.Lock()
	delete(profCache, key)
	profMu.Unlock()

	rep, err := profileWorkload(name, build, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) == 0 || len(rep.FuncStall) == 0 {
		t.Fatalf("%s profile has no loops or function stalls: the round trip would be vacuous", name)
	}
	got := diskCacheLoad(key)
	if got == nil {
		t.Fatal("profileWorkload did not store its report")
	}
	if !got.Equal(rep) {
		t.Error("loaded report is not Equal to the stored one")
	}
	if got.Prog.Name != rep.Prog.Name ||
		!reflect.DeepEqual(got.Prog.Code, rep.Prog.Code) ||
		!reflect.DeepEqual(got.Prog.Loops, rep.Prog.Loops) {
		t.Error("loaded report's program differs from the profiled one")
	}
}
