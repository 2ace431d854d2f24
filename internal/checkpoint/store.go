package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Store is a content-addressed snapshot directory: encoded snapshots live
// in <dir>/<content-hash>.snap, and small ref files map an input key (the
// configuration that produced a snapshot) to the content hash so callers
// can resolve a snapshot without rebuilding it.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a snapshot store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) snapPath(hash string) string {
	return filepath.Join(st.dir, hash+".snap")
}

func (st *Store) refPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(st.dir, hex.EncodeToString(sum[:])+".ref")
}

// WriteAtomic writes data to path via a temp file + rename, so concurrent
// figure runs never observe a torn file. Shared by the snapshot store and
// the figures disk cache.
func WriteAtomic(path string, data []byte) error {
	return writeAtomic(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// writeAtomic is WriteAtomic for content that writes itself: a snapshot
// streams its section buffers into the temp file, never through one
// contiguous copy of the image.
func writeAtomic(path string, write func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

// Put writes the snapshot under its content hash and returns the hash.
// A snapshot that is already present is not rewritten — once the file has
// been read and found equal to the encoding. WriteAtomic renames without
// fsync, so a crash can leave a short or garbled file under the final
// name; trusting its name (or its size) would fail every later Load of
// content that has since been put again, for as long as the store lives.
func (st *Store) Put(s *Snapshot) (string, error) {
	return st.put(s, s.Hash())
}

// put is Put for a caller that has already computed s.Hash().
func (st *Store) put(s *Snapshot, hash string) (string, error) {
	path := st.snapPath(hash)
	if b, err := os.ReadFile(path); err == nil && len(b) == s.Size() && bytes.Equal(b, s.Encode()) {
		return hash, nil
	}
	err := writeAtomic(path, func(f *os.File) error {
		_, err := s.WriteTo(f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hash, nil
}

// Load reads the snapshot with the given content hash, verifying the
// content actually hashes to it.
func (st *Store) Load(hash string) (*Snapshot, error) {
	b, err := os.ReadFile(st.snapPath(hash))
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != hash {
		return nil, fmt.Errorf("checkpoint: store corruption: %s.snap hashes to %s", hash, got)
	}
	return Decode(b)
}

// Remove deletes the snapshot with the given content hash, if present.
// Best-effort by design: pruning a superseded mid-run checkpoint must
// never fail the run that outgrew it, and a missing file is already the
// desired state.
func (st *Store) Remove(hash string) {
	_ = os.Remove(st.snapPath(hash))
}

// Link records that the given input key produced the snapshot with the
// given content hash.
func (st *Store) Link(key, hash string) error {
	return WriteAtomic(st.refPath(key), []byte(hash+"\n"))
}

// Unlink removes the ref recorded for an input key, if present.
// Best-effort, like Remove: retiring a completed run's checkpoint chain
// must never fail the run.
func (st *Store) Unlink(key string) {
	_ = os.Remove(st.refPath(key))
}

// Resolve returns the content hash previously linked to the input key.
func (st *Store) Resolve(key string) (string, bool) {
	b, err := os.ReadFile(st.refPath(key))
	if err != nil {
		return "", false
	}
	hash := strings.TrimSpace(string(b))
	if len(hash) != sha256.Size*2 {
		return "", false
	}
	return hash, true
}
