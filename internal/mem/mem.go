package mem

import (
	"encoding/binary"

	"repro/internal/recycle"
)

// Addr is a physical byte address.
type Addr uint64

// VAddr is a virtual byte address.
type VAddr uint64

// Layout constants shared by the whole hierarchy.
const (
	LineBytes = 64 // cache-line size at every level (paper §4.1)
	LineShift = 6
	PageBytes = 4096
	PageShift = 12
)

// LineAddr returns the address of the cache line containing a.
func LineAddr[T ~uint64](a T) T { return a &^ (LineBytes - 1) }

// PageNum returns the page number of a virtual address.
func PageNum(a VAddr) uint64 { return uint64(a) >> PageShift }

// FrameNum returns the frame number of a physical address.
func FrameNum(a Addr) uint64 { return uint64(a) >> PageShift }

// Physical is the machine's physical memory: a sparse set of 4KiB frames.
// Reads of unbacked memory return zeroes; writes allocate frames on demand.
// Frames are borrowed from framePool and handed back by Release.
type Physical struct {
	frames map[uint64]*[PageBytes]byte
}

var framePool recycle.Pool[byte]

// NewPhysical returns an empty physical memory.
func NewPhysical() *Physical {
	return &Physical{frames: make(map[uint64]*[PageBytes]byte)}
}

// Release ends the memory's life: every frame goes back to be borrowed by
// the next memory. Any later write panics and reads see nothing (there is
// no table left to hold a frame); a second Release does nothing.
func (p *Physical) Release() {
	p.dropFrames()
	p.frames = nil
}

// dropFrames hands every frame back, leaving the memory empty.
func (p *Physical) dropFrames() {
	for _, f := range p.frames {
		framePool.Put(f[:])
	}
	clear(p.frames)
}

// frame returns the frame backing a, or nil when there is none. It is the
// whole read path's lookup, and small enough to inline into it.
func (p *Physical) frame(a Addr) *[PageBytes]byte { return p.frames[FrameNum(a)] }

// backed returns the frame backing a, borrowing a zeroed one when there is
// none.
func (p *Physical) backed(a Addr) *[PageBytes]byte {
	fn := FrameNum(a)
	f := p.frames[fn]
	if f == nil {
		f = borrowFrame()
		p.frames[fn] = f
	}
	return f
}

func borrowFrame() *[PageBytes]byte { return (*[PageBytes]byte)(framePool.Get(PageBytes)) }

// Read8 reads one byte of physical memory.
func (p *Physical) Read8(a Addr) byte {
	f := p.frame(a)
	if f == nil {
		return 0
	}
	return f[uint64(a)%PageBytes]
}

// Write8 writes one byte of physical memory.
func (p *Physical) Write8(a Addr, v byte) {
	p.backed(a)[uint64(a)%PageBytes] = v
}

// Read64 reads a little-endian 64-bit word. The access may straddle a
// frame boundary.
func (p *Physical) Read64(a Addr) uint64 {
	if uint64(a)%PageBytes <= PageBytes-8 {
		f := p.frame(a)
		if f == nil {
			return 0
		}
		off := uint64(a) % PageBytes
		return binary.LittleEndian.Uint64(f[off : off+8])
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(p.Read8(a+Addr(i))) << (8 * i)
	}
	return v
}

// Write64 writes a little-endian 64-bit word.
func (p *Physical) Write64(a Addr, v uint64) {
	if uint64(a)%PageBytes <= PageBytes-8 {
		f := p.backed(a)
		off := uint64(a) % PageBytes
		binary.LittleEndian.PutUint64(f[off:off+8], v)
		return
	}
	for i := 0; i < 8; i++ {
		p.Write8(a+Addr(i), byte(v>>(8*i)))
	}
}

// WriteData copies b into physical memory starting at a, a frame at a
// time. A chunk that is all zero and lands on an unbacked frame allocates
// nothing (the frame already reads as zero); over a backed frame it is
// stored like any other data.
func (p *Physical) WriteData(a Addr, b []byte) {
	for len(b) > 0 {
		off := uint64(a) % PageBytes
		chunk := b[:min(uint64(len(b)), PageBytes-off)]
		f := p.frame(a)
		if f == nil && !allZero(chunk) {
			f = p.backed(a)
		}
		if f != nil {
			copy(f[off:], chunk)
		}
		a += Addr(len(chunk))
		b = b[len(chunk):]
	}
}

// ReadData copies n bytes starting at a into a fresh slice, a frame at a
// time.
func (p *Physical) ReadData(a Addr, n int) []byte {
	out := make([]byte, n)
	for rest := out; len(rest) > 0; {
		off := uint64(a) % PageBytes
		chunk := rest[:min(uint64(len(rest)), PageBytes-off)]
		if f := p.frame(a); f != nil {
			copy(chunk, f[off:])
		}
		a += Addr(len(chunk))
		rest = rest[len(chunk):]
	}
	return out
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// FrameCount reports how many frames are backed: a host-cost figure for
// tests and benchmarks, never an input to simulated behaviour.
func (p *Physical) FrameCount() int { return len(p.frames) }
