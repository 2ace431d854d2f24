package figures

import (
	"crypto/sha256"
	"debug/elf"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/event"
	"repro/internal/sim"
)

// resultCacheVersion versions the on-disk result entry layout; bump it
// when the entry format (not the simulator) changes. v2 added the
// mid-run checkpoint cadence to the key.
const resultCacheVersion = 2

// binFingerprint identifies the running executable once, so disk-cached
// results are keyed to the exact simulator build that produced them: any
// rebuild — which may change timing — invalidates the cache rather than
// silently serving stale figures.
var binFingerprint = sync.OnceValue(func() string {
	path, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	return fingerprintFile(path)
})

// fingerprintFile is the truncated SHA-256 of what identifies the build of
// the executable at path: the build ID the Go linker recorded in it, which
// changes with any change of source, flags or toolchain and takes a
// fraction of a millisecond to read; or, when there is none to read (not
// an ELF file, the note stripped or empty), every byte of the file, which
// at 10 MB was a third of a warm figure re-emit.
func fingerprintFile(path string) string {
	h := sha256.New()
	if id := goBuildID(path); id != "" {
		io.WriteString(h, "go.buildid:"+id)
	} else {
		f, err := os.Open(path)
		if err != nil {
			return "unknown"
		}
		defer f.Close()
		if _, err := io.Copy(h, f); err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goBuildID reads the descriptor of the ELF note the Go linker writes to
// .note.go.buildid, or returns "" when the file has no such note.
func goBuildID(path string) string {
	f, err := elf.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sec := f.Section(".note.go.buildid")
	if sec == nil {
		return ""
	}
	note, err := sec.Data()
	if err != nil || len(note) < 12 {
		return ""
	}
	// A note is three words — name size, descriptor size, type — then the
	// name and the descriptor, each padded to a word.
	nameSize, descSize := f.ByteOrder.Uint32(note[0:]), f.ByteOrder.Uint32(note[4:])
	desc := 12 + (uint64(nameSize)+3)&^3
	if desc+uint64(descSize) > uint64(len(note)) {
		return ""
	}
	return string(note[desc : desc+uint64(descSize)])
}

// BinFingerprint returns the running executable's build fingerprint (see
// fingerprintFile) — the same fingerprint every disk-cache key embeds. The
// experiment service folds it into its sweep cache keys so a rebuilt
// simulator (which may change timing) never serves a stale remote result.
func BinFingerprint() string { return binFingerprint() }

// diskKey renders a runKey as the canonical string the disk cache hashes.
// Every figure input that can change a run's outcome is present: the
// workload/scheme/scale/geometry tuple, the warm-up depth and snapshot
// content hash, and the simulator build fingerprint.
func diskKey(key runKey) string {
	return fmt.Sprintf("result|v%d|bin=%s|wl=%s|scheme=%s|scale=%g|max=%d|l0d=%d/%d|warm=%d|snap=%s|every=%d",
		resultCacheVersion, binFingerprint(), key.workload, key.scheme,
		key.scale, key.maxCycles, key.l0dSize, key.l0dAssoc, key.warmup, key.snapHash, key.every)
}

// cachedEntry is the JSON layout of one disk-cached run result. The full
// key string is stored so a hash collision (or a debugging human) can be
// detected by inspection.
type cachedEntry struct {
	Key       string            `json:"key"`
	Cycles    uint64            `json:"cycles"`
	Committed uint64            `json:"committed"`
	Counters  map[string]uint64 `json:"counters"`
}

func resultPath(dir string, key runKey) string {
	sum := sha256.Sum256([]byte(diskKey(key)))
	return filepath.Join(dir, "results", hex.EncodeToString(sum[:])+".json")
}

// diskGet loads a previously computed run result. All failures — missing
// entry, unreadable file, key mismatch — report a miss; the cache is an
// accelerator, never an oracle.
func diskGet(dir string, key runKey) (sim.RunResult, bool) {
	b, err := os.ReadFile(resultPath(dir, key))
	if err != nil {
		return sim.RunResult{}, false
	}
	var e cachedEntry
	if err := json.Unmarshal(b, &e); err != nil || e.Key != diskKey(key) {
		return sim.RunResult{}, false
	}
	return sim.RunResult{
		Cycles:    event.Cycle(e.Cycles),
		Committed: e.Committed,
		Counters:  e.Counters,
	}, true
}

// diskPut stores a run result, best-effort: a full disk or unwritable
// directory only costs future cache hits.
func diskPut(dir string, key runKey, res sim.RunResult) {
	path := resultPath(dir, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	e := cachedEntry{
		Key:       diskKey(key),
		Cycles:    uint64(res.Cycles),
		Committed: res.Committed,
		Counters:  res.Counters,
	}
	b, err := json.MarshalIndent(e, "", "\t")
	if err != nil {
		return
	}
	_ = checkpoint.WriteAtomic(path, b)
}
