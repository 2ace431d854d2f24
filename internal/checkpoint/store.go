package checkpoint

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Store is a snapshot directory. Warm snapshots live content-addressed
// in <dir>/<content-hash>.snap, with small ref files mapping an input key
// (the configuration that produced a snapshot) to the content hash, so
// callers can resolve a snapshot without rebuilding it. A checkpoint
// chain is two slot files, <dir>/<sha256(key)>.slot0 and .slot1,
// overwritten in place (see Save).
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

// keyPath names a file by the SHA-256 of an input key: keys are opaque
// canonical strings, never filenames.
func (st *Store) keyPath(key, ext string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(st.dir, hex.EncodeToString(sum[:])+ext)
}

// slotPath names the slot checkpoint ordinal g of a chain goes to.
func (st *Store) slotPath(key string, g uint64) string {
	return st.keyPath(key, ".slot"+strconv.FormatUint(g%2, 10))
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
// Best-effort by design: a missing file is already the desired state.
func (st *Store) Remove(hash string) {
	_ = os.Remove(st.snapPath(hash))
}

// Link records that the given input key produced the snapshot with the
// given content hash.
func (st *Store) Link(key, hash string) error {
	return WriteAtomic(st.keyPath(key, ".ref"), []byte(hash+"\n"))
}

// Resolve returns the content hash previously linked to the input key.
func (st *Store) Resolve(key string) (string, bool) {
	b, err := os.ReadFile(st.keyPath(key, ".ref"))
	if err != nil {
		return "", false
	}
	hash := strings.TrimSpace(string(b))
	if len(hash) != sha256.Size*2 {
		return "", false
	}
	return hash, true
}

// saveBufs are the writers Save streams an image through. WriteTo writes
// a section as two small writes, its header and its payload, and
// unbuffered each would be a system call of its own. A pool may drop what
// it holds (at a collection, and a quarter of the time under the race
// detector), so a writer is small enough that making another is cheap
// beside the image; payloads larger than it go around it.
var saveBufs = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 16<<10) }}

// Save overwrites the chain's slot g mod 2 with checkpoint ordinal g. The
// encoding streams from the section buffers into place behind the
// header, through one 16 KiB buffer and hashed on the way, and the header
// goes in last: no temp file, no rename, no image-sized buffer. A crash
// mid-write leaves a slot whose hash does not check out, and Latest falls
// back to the other slot, which holds checkpoint g-1. An image shorter
// than the slot's previous one leaves stale bytes behind it; the header's
// length says where it ends.
func (st *Store) Save(key string, g uint64, s *Snapshot) error {
	f, err := os.OpenFile(st.slotPath(key, g), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	h, w := sha256.New(), saveBufs.Get().(*bufio.Writer)
	w.Reset(io.NewOffsetWriter(f, slotHeaderSize))
	n, err := s.WriteTo(io.MultiWriter(w, h))
	if err == nil {
		err = w.Flush()
	}
	w.Reset(nil)
	saveBufs.Put(w)
	if err == nil {
		hdr := make([]byte, slotHeaderSize)
		putSlotHeader(hdr, g, uint64(n), h.Sum(nil))
		_, err = f.WriteAt(hdr, 0)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Latest reads both slots and returns the checkpoint with the highest
// ordinal whose length and hash check out. A chain with no slot file is
// (nil, 0, nil); one whose slots hold nothing intact is an error.
func (st *Store) Latest(key string) (*Snapshot, uint64, error) {
	var best *Snapshot
	var bestG uint64
	var errs []error
	for slot := uint64(0); slot < 2; slot++ {
		b, err := os.ReadFile(st.slotPath(key, slot))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		var s *Snapshot
		var g uint64
		if err == nil {
			s, g, err = decodeSlot(b)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("slot %d: %w", slot, err))
		} else if best == nil || g > bestG {
			best, bestG = s, g
		}
	}
	if best == nil {
		return nil, 0, errors.Join(errs...)
	}
	return best, bestG, nil
}

// Drop removes the chain's slots, if present. Best-effort: retiring a
// finished run's chain must never fail the run.
func (st *Store) Drop(key string) {
	for slot := uint64(0); slot < 2; slot++ {
		_ = os.Remove(st.slotPath(key, slot))
	}
}

// slotHeaderSize is the slot header: the checkpoint's ordinal, the length
// of its encoding and the SHA-256 of that encoding (Snapshot.Hash's hash),
// then the encoding itself.
const slotHeaderSize = 8 + 8 + sha256.Size

func putSlotHeader(hdr []byte, g, n uint64, sum []byte) {
	binary.LittleEndian.PutUint64(hdr, g)
	binary.LittleEndian.PutUint64(hdr[8:], n)
	copy(hdr[16:slotHeaderSize], sum)
}

// encodeSlot renders a whole slot record in one buffer — the wire form a
// chain checkpoint travels in.
func encodeSlot(g uint64, s *Snapshot) []byte {
	buf := bytes.NewBuffer(make([]byte, slotHeaderSize, slotHeaderSize+s.Size()))
	_, _ = s.WriteTo(buf) // a bytes.Buffer never fails a write
	b := buf.Bytes()
	sum := sha256.Sum256(b[slotHeaderSize:])
	putSlotHeader(b, g, uint64(len(b)-slotHeaderSize), sum[:])
	return b
}

// decodeSlot checks a slot record's length and hash and decodes its
// image; bytes after the image are ignored.
func decodeSlot(b []byte) (*Snapshot, uint64, error) {
	if len(b) < slotHeaderSize {
		return nil, 0, fmt.Errorf("checkpoint: slot header truncated (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint64(b[8:])
	if n > uint64(len(b)-slotHeaderSize) {
		return nil, 0, fmt.Errorf("checkpoint: slot image truncated (%d of %d bytes)", len(b)-slotHeaderSize, n)
	}
	img := b[slotHeaderSize : slotHeaderSize+int(n)]
	if sha256.Sum256(img) != [sha256.Size]byte(b[16:slotHeaderSize]) {
		return nil, 0, fmt.Errorf("checkpoint: slot image does not match its hash")
	}
	s, err := Decode(img)
	if err != nil {
		return nil, 0, err
	}
	return s, binary.LittleEndian.Uint64(b), nil
}
