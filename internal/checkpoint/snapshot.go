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
	buf  []byte
}

// Snapshot is an ordered collection of named byte sections, one per
// simulated component.
type Snapshot struct {
	sections []section
	index    map[string]int
	put      State // the State Put walks with, reused section after section
}

// New returns an empty snapshot.
func New() *Snapshot {
	return &Snapshot{index: make(map[string]int)}
}

// Reset empties the snapshot for refilling, keeping each section's
// buffer: a Put that follows saves into the buffer of the section that
// held the same position, when it had the same name. A run that
// checkpoints the same machine again and again refills one image this
// way instead of building one per checkpoint; whatever held the image
// before Reset must be done with it.
func (s *Snapshot) Reset() {
	clear(s.index)
	s.sections = s.sections[:0]
}

// Grow makes room for n more sections, so filling a new image whose
// section count is known allocates its payloads and little else. It
// allocates nothing when the room is there, as it is in an image that
// Reset emptied after it held as many sections.
func (s *Snapshot) Grow(n int) {
	if cap(s.sections)-len(s.sections) >= n {
		return
	}
	s.sections = slices.Grow(s.sections, n)
	if len(s.index) == 0 {
		s.index = make(map[string]int, cap(s.sections))
	}
}

// Put adds the named section, walking fn twice: once measuring, then, into
// a payload with room for the measured size, saving. The payload is
// reserved at exactly that size, unless Reset left a buffer of this name
// at this position: that one is reused, grown amortised when it is too
// small. A walk that saves a different number of bytes than it measured,
// and a section added twice, are programming errors and panic.
func (s *Snapshot) Put(name string, fn func(*State)) {
	if _, dup := s.index[name]; dup {
		panic(fmt.Sprintf("checkpoint: duplicate section %q", name))
	}
	st := &s.put
	*st = State{mode: measuring, name: name, keys: st.keys}
	fn(st)
	size := st.off
	// Reset left the sections it emptied past len(s.sections).
	if spare := s.sections[len(s.sections):cap(s.sections)]; len(spare) > 0 && spare[0].name == name {
		st.buf = slices.Grow(spare[0].buf[:0], size)
	} else {
		st.buf = make([]byte, 0, size)
	}
	st.mode = saving
	st.keys = slices.Grow(st.keys[:0], st.maxKeys)
	fn(st)
	if len(st.buf) != size {
		panic(fmt.Sprintf("checkpoint: section %q measured %d bytes but saved %d", name, size, len(st.buf)))
	}
	s.add(name, st.buf)
	*st = State{keys: st.keys}
}

// Get loads the named section by walking fn over its payload, and returns
// the error that ended the walk, if one did. A walk that ends before the
// payload does fails too: the bytes it left are state that nothing
// restored.
func (s *Snapshot) Get(name string, fn func(*State)) (err error) {
	i, ok := s.index[name]
	if !ok {
		return fmt.Errorf("checkpoint: no section %q", name)
	}
	st := &State{mode: loading, name: name, buf: s.sections[i].buf}
	defer func() { err = st.ended(recover()) }()
	fn(st)
	if st.off != len(st.buf) {
		st.Failf("%d bytes left unread after the walk's %d", len(st.buf)-st.off, st.off)
	}
	return nil
}

// Row is one section of a machine: its name and the walk that measures,
// saves and loads it. Each owner of state lists one row per structure it
// holds, so a section holds one structure or one counter array, and a
// structure the configuration lacks has no row. MayBeMissing marks a
// structure that may start empty, such as a filter cache: an image
// without its section (one taken on a machine without the structure)
// leaves it as it is.
type Row struct {
	Name         string
	Walk         func(*State)
	MayBeMissing bool
}

func (s *Snapshot) add(name string, buf []byte) {
	s.index[name] = len(s.sections)
	s.sections = append(s.sections, section{name: name, buf: buf})
}

// Has reports whether the named section exists.
func (s *Snapshot) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// Len is the payload length of the named section, 0 if there is none.
func (s *Snapshot) Len(name string) int {
	if i, ok := s.index[name]; ok {
		return len(s.sections[i].buf)
	}
	return 0
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
		n += 4 + len(sec.name) + 8 + len(sec.buf)
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
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(sec.buf)))
		if err := write(hdr); err != nil {
			return total, err
		}
		hdr = hdr[:0]
		if err := write(sec.buf); err != nil {
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
		s.add(name, append([]byte(nil), b[:payLen]...))
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
