package figures

import (
	"crypto/sha256"
	"debug/elf"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/event"
	"repro/internal/sim"
)

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
// fingerprintFile) — the same fingerprint every key KeyKind.Key renders
// embeds.
func BinFingerprint() string { return binFingerprint() }

// A KeyKind is one kind of key and the version of its layout. Every cache,
// chain and store key in the repository is rendered by KeyKind.Key, so
// each one names its kind and version and embeds the build fingerprint: a
// rebuilt simulator (which may change timing) never serves a stale entry.
// Bump a kind's version when its fields change, so entries written under
// the old layout miss instead of being misread.
type KeyKind struct {
	name    string
	version int
}

var (
	// resultKind keys the disk result cache, and behind "midrun|" the
	// mid-run checkpoint chains (diskKey). v2 added the checkpoint cadence.
	resultKind = KeyKind{"result", 2}
	// warmKind keys warm snapshots (warmInputKey): a new machine image
	// format is a new snapshot.
	warmKind = KeyKind{"warm", checkpoint.FormatVersion}
	// SweepKind keys the experiment service's stored sweep results. It is
	// versioned apart from the service's job journal, whose layout never
	// decides what a stored result is.
	SweepKind = KeyKind{"sweep", 1}
)

// Key renders kind|v<version>|bin=<fingerprint>|name=value|… from fields
// given as name, value pairs, in the order given.
func (k KeyKind) Key(fields ...string) string {
	if len(fields)%2 != 0 {
		panic("figures: key fields must come in name, value pairs")
	}
	fp := binFingerprint()
	n := len(k.name) + len("|v00|bin=") + len(fp)
	for _, f := range fields {
		n += len(f) + 1
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(k.name)
	b.WriteString("|v")
	b.WriteString(strconv.Itoa(k.version))
	b.WriteString("|bin=")
	b.WriteString(fp)
	for i := 0; i < len(fields); i += 2 {
		b.WriteByte('|')
		b.WriteString(fields[i])
		b.WriteByte('=')
		b.WriteString(fields[i+1])
	}
	return b.String()
}

// diskKey renders a runKey as the canonical string the disk cache hashes:
// every field of the key, so every figure input that can change a run's
// outcome.
func diskKey(key runKey) string {
	return resultKind.Key(
		"wl", key.workload,
		"scheme", key.scheme,
		"scale", strconv.FormatFloat(key.scale, 'g', -1, 64),
		"max", strconv.Itoa(key.maxCycles),
		"l0d", strconv.FormatUint(key.l0dSize, 10)+"/"+strconv.Itoa(key.l0dAssoc),
		"warm", strconv.Itoa(key.warmup),
		"snap", key.snapHash,
		"every", strconv.Itoa(key.every))
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

func resultPath(dir, dkey string) string {
	sum := sha256.Sum256([]byte(dkey))
	return filepath.Join(dir, "results", hex.EncodeToString(sum[:])+".json")
}

// diskGet loads a previously computed run result stored under dkey (a
// diskKey). All failures — missing entry, unreadable file, key mismatch —
// report a miss; the cache is an accelerator, never an oracle.
func diskGet(dir, dkey string) (sim.RunResult, bool) {
	b, err := os.ReadFile(resultPath(dir, dkey))
	if err != nil {
		return sim.RunResult{}, false
	}
	var e cachedEntry
	if err := json.Unmarshal(b, &e); err != nil || e.Key != dkey {
		return sim.RunResult{}, false
	}
	return sim.RunResult{
		Cycles:    event.Cycle(e.Cycles),
		Committed: e.Committed,
		Counters:  e.Counters,
	}, true
}

// diskPut stores a run result under dkey, best-effort: a full disk or
// unwritable directory only costs future cache hits.
func diskPut(dir, dkey string, res sim.RunResult) {
	path := resultPath(dir, dkey)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	e := cachedEntry{
		Key:       dkey,
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
