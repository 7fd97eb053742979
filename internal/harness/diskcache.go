package harness

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"ghostthread/internal/profile"
)

// diskCacheVersion is bumped whenever the blob layout or the meaning of a
// cached report changes (e.g. the profiler's attribution rules). A version
// mismatch is treated as a stale key: the blob is evicted and the profile
// recomputed.
const diskCacheVersion = 3

// profCacheDir is the on-disk profile-cache directory ("" = disabled).
// It is written once at process start (flag parsing) before any worker
// goroutine profiles, and only read afterwards, so it needs no lock.
var profCacheDir string

// SetProfileCacheDir enables the on-disk profiling-report cache rooted at
// dir (creating it if needed). Repeated ghostbench invocations then skip
// re-profiling: a profiling run is deterministic for a given (workload,
// machine) pair, so a cached report is bit-identical to a fresh one and
// rows computed from it are unchanged. Call before any evaluation starts.
func SetProfileCacheDir(dir string) error {
	if dir == "" {
		profCacheDir = ""
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("harness: profile cache: %w", err)
	}
	profCacheDir = dir
	return nil
}

// diskBlob is the serialized form of one cached profiling report. Key
// stores the full rendered profKey so a hash collision or a stale file
// surfaced under a reused name is detected on load and evicted instead of
// silently poisoning the evaluation.
type diskBlob struct {
	Version int
	Key     string
	Report  profile.Report
}

// renderKey produces the stable textual form of a profKey that is both
// hashed for the filename and stored in the blob for verification. profKey
// contains only scalars and fixed structs of scalars, so %+v is stable.
func renderKey(key profKey) string {
	return fmt.Sprintf("v%d|%+v", diskCacheVersion, key)
}

func diskCachePath(rendered string) string {
	sum := sha256.Sum256([]byte(rendered))
	return filepath.Join(profCacheDir, "gtprof-"+hex.EncodeToString(sum[:16])+".gob")
}

// diskCacheLoad returns the cached report for key, or nil on any miss.
// Corrupt or stale blobs (undecodable, wrong version, key mismatch) are
// evicted so the slot heals on the next store.
func diskCacheLoad(key profKey) *profile.Report {
	if profCacheDir == "" {
		return nil
	}
	rendered := renderKey(key)
	path := diskCachePath(rendered)
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	var blob diskBlob
	if err := gob.NewDecoder(f).Decode(&blob); err != nil ||
		blob.Version != diskCacheVersion || blob.Key != rendered {
		os.Remove(path)
		return nil
	}
	return &blob.Report
}

// diskCacheStore persists rep under key, atomically (write to a temp file
// in the same directory, then rename) so a crashed run never leaves a
// half-written blob behind.
func diskCacheStore(key profKey, rep *profile.Report) {
	if profCacheDir == "" || rep == nil {
		return
	}
	rendered := renderKey(key)
	path := diskCachePath(rendered)
	tmp, err := os.CreateTemp(profCacheDir, "gtprof-*.tmp")
	if err != nil {
		return
	}
	blob := diskBlob{Version: diskCacheVersion, Key: rendered, Report: *rep}
	if err := gob.NewEncoder(tmp).Encode(&blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}
