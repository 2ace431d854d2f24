package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
)

// FormatVersion is the snapshot container format version. Bump it whenever
// the container layout (not a component payload) changes incompatibly.
const FormatVersion = 1

// magic identifies a snapshot file; the trailing \r\n catches text-mode
// corruption the way PNG's header does.
var magic = [8]byte{'M', 'T', 'S', 'N', 'A', 'P', '\r', '\n'}

// section is one named payload inside a snapshot.
type section struct {
	name string
	w    *Writer
}

// Snapshot is an ordered collection of named byte sections, one per
// simulated component.
type Snapshot struct {
	sections []section
	index    map[string]int
}

// New returns an empty snapshot.
func New() *Snapshot {
	return &Snapshot{index: make(map[string]int)}
}

// Section creates a named section and returns its Writer. Creating the
// same section twice is a programming error and panics.
func (s *Snapshot) Section(name string) *Writer {
	if _, dup := s.index[name]; dup {
		panic(fmt.Sprintf("checkpoint: duplicate section %q", name))
	}
	w := &Writer{}
	s.index[name] = len(s.sections)
	s.sections = append(s.sections, section{name: name, w: w})
	return w
}

// Open returns a Reader over the named section's payload.
func (s *Snapshot) Open(name string) (*Reader, error) {
	i, ok := s.index[name]
	if !ok {
		return nil, fmt.Errorf("checkpoint: no section %q", name)
	}
	return &Reader{name: name, buf: s.sections[i].w.buf}, nil
}

// Has reports whether the named section exists.
func (s *Snapshot) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// Names returns the section names in insertion order.
func (s *Snapshot) Names() []string {
	out := make([]string, len(s.sections))
	for i, sec := range s.sections {
		out[i] = sec.name
	}
	return out
}

// Size is the length of the canonical encoding.
func (s *Snapshot) Size() int {
	n := len(magic) + 4 + 4
	for _, sec := range s.sections {
		n += 4 + len(sec.name) + 8 + len(sec.w.buf)
	}
	return n
}

// WriteTo writes the canonical byte form — magic, version, section count,
// then each section as (name length, name, payload length, payload) — to
// w, payloads straight from the section buffers. It is the one definition
// of the container layout: Encode, Hash and the stores all go through it,
// so none of them pays for a second copy of the image.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	var total int64
	write := func(b []byte) error {
		n, err := w.Write(b)
		total += int64(n)
		return err
	}
	hdr := make([]byte, 0, 64)
	hdr = append(hdr, magic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, FormatVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(s.sections)))
	for _, sec := range s.sections {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(sec.name)))
		hdr = append(hdr, sec.name...)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(sec.w.buf)))
		if err := write(hdr); err != nil {
			return total, err
		}
		hdr = hdr[:0]
		if err := write(sec.w.buf); err != nil {
			return total, err
		}
	}
	if len(hdr) > 0 { // no sections: the container header alone
		if err := write(hdr); err != nil {
			return total, err
		}
	}
	return total, nil
}

// Encode renders the snapshot in its canonical byte form (see WriteTo).
func (s *Snapshot) Encode() []byte {
	out := bytes.NewBuffer(make([]byte, 0, s.Size()))
	_, _ = s.WriteTo(out) // a bytes.Buffer never fails a write
	return out.Bytes()
}

// Decode parses a snapshot from its canonical byte form.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < len(magic)+8 {
		return nil, fmt.Errorf("checkpoint: truncated snapshot (%d bytes)", len(b))
	}
	if [8]byte(b[:8]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic")
	}
	b = b[8:]
	ver := binary.LittleEndian.Uint32(b)
	if ver != FormatVersion {
		return nil, fmt.Errorf("checkpoint: format version %d, want %d", ver, FormatVersion)
	}
	count := binary.LittleEndian.Uint32(b[4:])
	b = b[8:]
	s := New()
	for i := uint32(0); i < count; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("checkpoint: truncated section header")
		}
		nameLen := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint64(len(b)) < uint64(nameLen)+8 {
			return nil, fmt.Errorf("checkpoint: truncated section name")
		}
		name := string(b[:nameLen])
		b = b[nameLen:]
		payLen := binary.LittleEndian.Uint64(b)
		b = b[8:]
		if uint64(len(b)) < payLen {
			return nil, fmt.Errorf("checkpoint: truncated section %q payload", name)
		}
		if _, dup := s.index[name]; dup {
			return nil, fmt.Errorf("checkpoint: duplicate section %q", name)
		}
		w := s.Section(name)
		w.buf = append(w.buf, b[:payLen]...)
		b = b[payLen:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", len(b))
	}
	return s, nil
}

// Hash returns the SHA-256 of the canonical encoding, hex-encoded. Equal
// machine state yields equal hashes (savers serialise deterministically).
func (s *Snapshot) Hash() string {
	h := sha256.New()
	_, _ = s.WriteTo(h) // a hash never fails a write
	return hex.EncodeToString(h.Sum(nil))
}

// Writer serialises fixed-width little-endian primitives into a section.
type Writer struct {
	buf []byte
}

// Len reports the bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Grow reserves room for n more bytes, so the writes that follow fill one
// allocation instead of regrowing the section buffer as they append.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// U64 writes a uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 writes an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// U32 writes a uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// TableWriter writes a sparse table: a count, then only the entries the
// structure holds, each prefixed by its ascending index. The count is
// written as a placeholder and filled in by End, so the owner makes one
// pass over its structure and never counts it first.
type TableWriter struct {
	w  *Writer
	at int // offset of the count
	n  uint32
}

// Table starts a sparse table.
func (w *Writer) Table() TableWriter {
	t := TableWriter{w: w, at: len(w.buf)}
	w.U32(0)
	return t
}

// Entry writes the index of the next entry; the caller writes the entry's
// fields after it. Indices must ascend.
func (t *TableWriter) Entry(i int) {
	t.n++
	t.w.U32(uint32(i))
}

// End fills in the count.
func (t *TableWriter) End() { binary.LittleEndian.PutUint32(t.w.buf[t.at:], t.n) }

// U8 writes a byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Raw appends n bytes and returns them for the caller to fill, so a dense
// table of small elements is written in one tight loop instead of one
// append per element. The slice is valid until the next write.
func (w *Writer) Raw(n int) []byte {
	w.buf = slices.Grow(w.buf, n)
	off := len(w.buf)
	w.buf = w.buf[:off+n]
	return w.buf[off:]
}

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader deserialises a section written by Writer. All getters are safe to
// call after an error; they return zero values and the first error sticks.
type Reader struct {
	name string
	buf  []byte
	off  int
	err  error
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("checkpoint: section %q truncated at offset %d (+%d)", r.name, r.off, n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Raw reads n bytes without copying them — the read side of Writer.Raw.
// The slice is nil once the reader has failed; check Err, not the slice.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// TableReader reads a sparse table written through TableWriter into a
// structure of a known capacity.
type TableReader struct {
	r        *Reader
	left     uint32
	prev     int64
	capacity int
}

// Table starts reading a sparse table: it reads the count and fails the
// reader when it exceeds capacity, so the loop over Next is bounded by the
// structure being filled, never by a number from the file.
func (r *Reader) Table(capacity int) TableReader {
	n := r.U32()
	if r.err == nil && uint64(n) > uint64(capacity) {
		r.Failf("%d entries in a table of %d", n, capacity)
	}
	return TableReader{r: r, left: n, prev: -1, capacity: capacity}
}

// Next reads the index of the next entry and reports false when the table
// is exhausted or the reader has failed. An index must be below the
// capacity and strictly above the one before it; anything else fails the
// reader, so no index from a file reaches the caller's table unchecked.
// The caller reads the entry's fields after a true.
func (t *TableReader) Next() (int, bool) {
	if t.left == 0 || t.r.err != nil {
		return 0, false
	}
	t.left--
	i := int64(t.r.U32())
	if t.r.err == nil && (i >= int64(t.capacity) || i <= t.prev) {
		t.r.Failf("entry index %d after %d in a table of %d", i, t.prev, t.capacity)
	}
	if t.r.err != nil {
		return 0, false
	}
	t.prev = i
	return int(i), true
}

// Bytes reads a length-prefixed byte slice (a copy).
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.err = fmt.Errorf("checkpoint: section %q claims %d bytes with %d left", r.name, n, len(r.buf)-r.off)
		return nil
	}
	b := r.take(int(n))
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Failf records a semantic error (geometry mismatch and the like) so it
// surfaces through Err alongside decoding errors.
func (r *Reader) Failf(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("checkpoint: section %q: %s", r.name, fmt.Sprintf(format, args...))
	}
	return r.err
}
