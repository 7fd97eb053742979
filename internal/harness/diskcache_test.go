package harness

// diskcache_test.go — white-box tests for the on-disk profile cache:
// round-trip fidelity, eviction of corrupt and stale blobs, and the
// end-to-end disk hit through profileWorkload's memo.

import (
	"encoding/gob"
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

// testKey builds a profKey for the default machine, varied by workload
// name.
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
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
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
	diskCacheStore(keyA, testReport())
	pathA := diskCachePath(renderKey(keyA))
	pathB := diskCachePath(renderKey(keyB))
	if err := os.Rename(pathA, pathB); err != nil {
		t.Fatal(err)
	}
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
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	blob := diskBlob{Version: diskCacheVersion + 1, Key: rendered, Report: *testReport()}
	if err := gob.NewEncoder(f).Encode(&blob); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if diskCacheLoad(key) != nil {
		t.Error("version-mismatched blob was returned")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("version-mismatched blob was not evicted: stat err = %v", err)
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
