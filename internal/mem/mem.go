// Package mem implements the simulated physical memory substrate: a frame
// allocator over a flat byte-addressable space, page pinning, and typed
// accessors. All simulated structures that the (r)IOMMU hardware reads —
// radix page tables, flat rIOMMU tables, DMA descriptors, target buffers —
// live inside a PhysMem so that translations and DMAs are exercised against
// real bytes rather than mocked.
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Architectural constants shared by the whole simulator (Intel x86-64 / VT-d).
const (
	// PageShift is log2 of the page size.
	PageShift = 12
	// PageSize is the 4 KiB page size.
	PageSize = 1 << PageShift
	// PageMask masks the offset-within-page bits.
	PageMask = PageSize - 1
	// CachelineSize is the size of one CPU cacheline.
	CachelineSize = 64
)

// PA is a physical address in the simulated memory.
type PA uint64

// PFN is a physical frame number (PA >> PageShift).
type PFN uint64

// PA returns the base physical address of the frame.
func (p PFN) PA() PA { return PA(p) << PageShift }

// PFNOf returns the frame number containing pa.
func PFNOf(pa PA) PFN { return PFN(pa >> PageShift) }

// AccessError describes an invalid physical memory access.
type AccessError struct {
	Op   string // "read", "write", "alloc", "free", "pin", "unpin"
	Addr PA
	Size uint64
	Why  string
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("mem: %s [pa=%#x size=%d]: %s", e.Op, e.Addr, e.Size, e.Why)
}

// FaultHook is the memory fault-injection interface (implemented by
// faults.Engine). It is consulted only on the bulk Read/ReadInto/Write
// paths — the data paths DMAs and payload copies use — so metadata accessed
// through the typed accessors (page tables, queue cursors) stays intact and
// descriptor corruption is modeled separately at the device layer.
type FaultHook interface {
	// ReadFault may corrupt buf, the data just read from pa, in place.
	ReadFault(pa PA, buf []byte) bool
	// WriteFault may corrupt stored, the bytes just written at pa, in
	// place, and reports whether the cacheline at pa must be poisoned.
	WriteFault(pa PA, stored []byte) (poison bool)
}

// PhysMem is a simulated physical memory with a simple page-frame allocator.
// Frame 0 is reserved (so a zero PA can act as a null pointer in page
// tables). PhysMem is not safe for concurrent use.
//
// The free list is lazy: frames at or above the watermark have never been
// allocated and are handed out in ascending order without ever being
// materialized in a slice, while the free stack holds only explicitly freed
// frames. The observable allocation order is byte-identical to the eager
// descending free list this replaces (the deterministic-layout test pins
// it); the one operation whose legacy behavior a watermark cannot mirror —
// reserving a specific never-allocated frame while freed frames exist —
// materializes the full legacy list first and proceeds identically.
type PhysMem struct {
	data      []byte
	frames    int
	free      []PFN // LIFO stack of explicitly freed frames
	watermark PFN   // lazy mode: lowest never-allocated frame
	lazy      bool  // free list not materialized (the common case)
	lowFree   PFN   // first-free hint: every frame in [1, lowFree) is allocated
	alloced   []bool
	pinCount  []uint32
	dirty     []bool // dirty[f]: frame f's bytes may differ from zero

	bk *backing // pooled backing this instance borrowed (nil if fresh-only)

	hook   FaultHook
	poison map[uint64]struct{} // poisoned cacheline indices
}

// backing is the pooled per-instance state recycled between PhysMem worlds
// of the same size: the flat byte array plus the frame-metadata arrays.
// Reuse is observation-equivalent to freshly zeroed arrays: every read/write
// path checks that the touched frames are allocated, AllocFrame/AllocFrames
// zero each dirty frame as it is handed out, and New clears the metadata
// prefix the previous life touched. The dirty array persists across lives —
// it is precisely the memory of which recycled frames still hold stale
// bytes — so a frame that was allocated but never written (posted-but-unused
// RX buffers are the bulk of a NIC world) costs no memclr in the next life.
// Pooling exists because experiment and campaign grids build one
// multi-megabyte world per cell, and zeroing those arrays dominated the
// simulator's wall-clock time.
type backing struct {
	data     []byte
	alloced  []bool
	pinCount []uint32
	dirty    []bool
	hi       int // frames [0, hi) saw metadata traffic in earlier lives
}

// pools buckets backings by exact byte size, so a 128 MiB NIC world and a
// 64 MiB block world recycle independently instead of evicting each other.
var pools sync.Map // uint64 (size) -> *sync.Pool

func getBacking(size uint64) *backing {
	p, _ := pools.LoadOrStore(size, &sync.Pool{})
	pool := p.(*sync.Pool)
	frames := int(size / PageSize)
	if v := pool.Get(); v != nil {
		b := v.(*backing)
		// Clear only the metadata prefix earlier lives touched: the
		// watermark allocator hands frames out in ascending order, so
		// nothing above b.hi was ever set.
		clear(b.alloced[:b.hi])
		clear(b.pinCount[:b.hi])
		return b
	}
	return &backing{
		data:     make([]byte, size),
		alloced:  make([]bool, frames),
		pinCount: make([]uint32, frames),
		dirty:    make([]bool, frames),
	}
}

// New creates a physical memory of the given size in bytes, which must be a
// positive multiple of PageSize.
func New(size uint64) (*PhysMem, error) {
	if size == 0 || size%PageSize != 0 {
		return nil, &AccessError{Op: "alloc", Size: size, Why: "size must be a positive multiple of the page size"}
	}
	bk := getBacking(size)
	m := &PhysMem{
		data:      bk.data,
		frames:    int(size / PageSize),
		watermark: 1, // frame 0 is reserved
		lazy:      true,
		lowFree:   1,
		alloced:   bk.alloced,
		pinCount:  bk.pinCount,
		dirty:     bk.dirty,
		bk:        bk,
	}
	m.alloced[0] = true
	// Frame 0 is readable (it is marked allocated) but never handed out, so
	// it must read as zeros even on a recycled backing array.
	m.clearFrame(0)
	return m, nil
}

// clearFrame zeroes frame f's bytes unless they are already known zero.
func (m *PhysMem) clearFrame(f PFN) {
	if m.dirty[f] {
		clear(m.frame(f))
		m.dirty[f] = false
	}
}

// Release returns the backing arrays to the per-size pool so the next
// PhysMem of the same size skips the large-allocation zeroing cost. The
// PhysMem — and every component holding it — must not be used afterwards.
// Releasing is optional; an unreleased PhysMem is simply garbage-collected.
func (m *PhysMem) Release() {
	if m.bk == nil || m.data == nil {
		m.data = nil
		return
	}
	if hi := m.metaHi(); hi > m.bk.hi {
		m.bk.hi = hi
	}
	p, _ := pools.LoadOrStore(uint64(len(m.data)), &sync.Pool{})
	p.(*sync.Pool).Put(m.bk)
	m.data = nil
	m.bk = nil
}

// SetFaultHook installs (or, with nil, removes) the fault-injection hook.
func (m *PhysMem) SetFaultHook(h FaultHook) { m.hook = h }

// PoisonCacheline marks the cacheline containing pa poisoned: bulk reads
// covering it fail with an AccessError until the line is rewritten (the
// semantics of an uncorrectable ECC error).
func (m *PhysMem) PoisonCacheline(pa PA) {
	if m.poison == nil {
		m.poison = make(map[uint64]struct{})
	}
	m.poison[uint64(pa)/CachelineSize] = struct{}{}
}

// ClearPoison removes poison from every cacheline the range touches.
// Writes, fills, and frame allocation clear poison implicitly.
func (m *PhysMem) ClearPoison(pa PA, size uint64) {
	if len(m.poison) == 0 || size == 0 {
		return
	}
	first := uint64(pa) / CachelineSize
	last := (uint64(pa) + size - 1) / CachelineSize
	for l := first; l <= last; l++ {
		delete(m.poison, l)
	}
}

// PoisonedRange reports whether any cacheline in [pa, pa+size) is poisoned.
func (m *PhysMem) PoisonedRange(pa PA, size uint64) bool {
	if len(m.poison) == 0 || size == 0 {
		return false
	}
	first := uint64(pa) / CachelineSize
	last := (uint64(pa) + size - 1) / CachelineSize
	for l := first; l <= last; l++ {
		if _, ok := m.poison[l]; ok {
			return true
		}
	}
	return false
}

// checkPoison fails a read overlapping a poisoned cacheline.
func (m *PhysMem) checkPoison(pa PA, size uint64) error {
	if m.PoisonedRange(pa, size) {
		return &AccessError{Op: "read", Addr: pa, Size: size, Why: "poisoned cacheline (uncorrectable error)"}
	}
	return nil
}

// Size returns the total size of the memory in bytes.
func (m *PhysMem) Size() uint64 { return uint64(len(m.data)) }

// Frames returns the total number of page frames.
func (m *PhysMem) Frames() int { return m.frames }

// FreeFrames returns the number of currently unallocated frames.
func (m *PhysMem) FreeFrames() int {
	if m.lazy {
		return len(m.free) + m.frames - int(m.watermark)
	}
	return len(m.free)
}

// popFrame takes the next free frame in legacy order: the most recently
// freed frame first, then never-allocated frames in ascending order.
func (m *PhysMem) popFrame() (PFN, bool) {
	if n := len(m.free); n > 0 {
		f := m.free[n-1]
		m.free = m.free[:n-1]
		return f, true
	}
	if m.lazy && int(m.watermark) < m.frames {
		f := m.watermark
		m.watermark++
		return f, true
	}
	return 0, false
}

// AllocFrame allocates one zeroed page frame.
func (m *PhysMem) AllocFrame() (PFN, error) {
	f, ok := m.popFrame()
	if !ok {
		return 0, &AccessError{Op: "alloc", Why: "out of physical frames"}
	}
	m.alloced[f] = true
	m.clearFrame(f)
	m.ClearPoison(f.PA(), PageSize)
	return f, nil
}

// AllocFrames allocates n physically contiguous zeroed frames and returns the
// first PFN. Contiguity is required for multi-page rings and flat tables.
func (m *PhysMem) AllocFrames(n int) (PFN, error) {
	if n <= 0 {
		return 0, &AccessError{Op: "alloc", Why: "nonpositive frame count"}
	}
	if n == 1 {
		return m.AllocFrame()
	}
	// First-fit scan for a contiguous run of free frames. No free frame lies
	// below the hint, so starting there finds the same lowest run as a scan
	// from frame 1.
	for int(m.lowFree) < m.frames && m.alloced[m.lowFree] {
		m.lowFree++
	}
	run := 0
	for f := int(m.lowFree); f < m.frames; f++ {
		if m.alloced[f] {
			run = 0
			continue
		}
		run++
		if run == n {
			first := PFN(f - n + 1)
			for i := 0; i < n; i++ {
				m.takeFrame(first + PFN(i))
				m.clearFrame(first + PFN(i))
			}
			m.ClearPoison(first.PA(), uint64(n)*PageSize)
			return first, nil
		}
	}
	return 0, &AccessError{Op: "alloc", Size: uint64(n) * PageSize, Why: "no contiguous run of free frames"}
}

// takeFrame removes f from the free list and marks it allocated.
func (m *PhysMem) takeFrame(f PFN) {
	if m.lazy && f >= m.watermark {
		if f == m.watermark && len(m.free) == 0 {
			// Legacy list's last element is exactly the watermark frame, so
			// the swap-remove degenerates to a pop.
			m.watermark++
			m.alloced[f] = true
			return
		}
		// Reserving a never-allocated frame out of order perturbs the legacy
		// list in a way a watermark cannot express; fall back to the eager
		// representation (rare: a contiguous multi-frame allocation after
		// frees, e.g. a device re-attach during recovery).
		m.materialize()
	}
	for i, g := range m.free {
		if g == f {
			m.free[i] = m.free[len(m.free)-1]
			m.free = m.free[:len(m.free)-1]
			break
		}
	}
	m.alloced[f] = true
}

// materialize converts the lazy free list into the legacy eager layout: the
// never-allocated frames in descending order followed by the freed-frame
// stack in push order. Pop and swap-remove then behave exactly as the
// original implementation did.
func (m *PhysMem) materialize() {
	full := make([]PFN, 0, m.frames-int(m.watermark)+len(m.free))
	for f := PFN(m.frames - 1); f >= m.watermark; f-- {
		full = append(full, f)
	}
	full = append(full, m.free...)
	m.free = full
	m.lazy = false
}

// FreeFrame releases a previously allocated frame. Freeing a pinned or
// unallocated frame is an error.
func (m *PhysMem) FreeFrame(f PFN) error {
	if err := m.checkFrame("free", f); err != nil {
		return err
	}
	if m.pinCount[f] > 0 {
		return &AccessError{Op: "free", Addr: f.PA(), Why: "frame is pinned"}
	}
	m.alloced[f] = false
	m.free = append(m.free, f)
	if f < m.lowFree {
		m.lowFree = f
	}
	return nil
}

// Pin increments the pin count of the frame containing pa. Pinned frames
// model pages locked for in-flight DMA (the paper notes target pages must be
// pinned since DMAs are not restartable).
func (m *PhysMem) Pin(pa PA) error {
	f := PFNOf(pa)
	if err := m.checkFrame("pin", f); err != nil {
		return err
	}
	m.pinCount[f]++
	return nil
}

// Unpin decrements the pin count of the frame containing pa.
func (m *PhysMem) Unpin(pa PA) error {
	f := PFNOf(pa)
	if err := m.checkFrame("unpin", f); err != nil {
		return err
	}
	if m.pinCount[f] == 0 {
		return &AccessError{Op: "unpin", Addr: pa, Why: "frame is not pinned"}
	}
	m.pinCount[f]--
	return nil
}

// Pinned reports whether the frame containing pa has a nonzero pin count.
func (m *PhysMem) Pinned(pa PA) bool {
	f := PFNOf(pa)
	return int(f) < m.frames && m.pinCount[f] > 0
}

func (m *PhysMem) checkFrame(op string, f PFN) error {
	if int(f) >= m.frames {
		return &AccessError{Op: op, Addr: f.PA(), Why: "frame out of range"}
	}
	if f == 0 {
		return &AccessError{Op: op, Addr: 0, Why: "frame 0 is reserved"}
	}
	if !m.alloced[f] {
		return &AccessError{Op: op, Addr: f.PA(), Why: "frame not allocated"}
	}
	return nil
}

func (m *PhysMem) checkRange(op string, pa PA, size uint64) error {
	end := uint64(pa) + size
	if end < uint64(pa) || end > uint64(len(m.data)) {
		return &AccessError{Op: op, Addr: pa, Size: size, Why: "out of bounds"}
	}
	// Every touched frame must be allocated.
	for f := PFNOf(pa); uint64(f.PA()) < end; f++ {
		if !m.alloced[f] {
			return &AccessError{Op: op, Addr: pa, Size: size, Why: fmt.Sprintf("frame %#x not allocated", uint64(f))}
		}
	}
	return nil
}

// Read copies size bytes at pa into a fresh slice.
func (m *PhysMem) Read(pa PA, size uint64) ([]byte, error) {
	if err := m.checkRange("read", pa, size); err != nil {
		return nil, err
	}
	if err := m.checkPoison(pa, size); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, m.data[pa:uint64(pa)+size])
	if m.hook != nil {
		m.hook.ReadFault(pa, out)
	}
	return out, nil
}

// ReadInto copies len(dst) bytes at pa into dst.
func (m *PhysMem) ReadInto(pa PA, dst []byte) error {
	if err := m.checkRange("read", pa, uint64(len(dst))); err != nil {
		return err
	}
	if err := m.checkPoison(pa, uint64(len(dst))); err != nil {
		return err
	}
	copy(dst, m.data[pa:])
	if m.hook != nil {
		m.hook.ReadFault(pa, dst)
	}
	return nil
}

// Write copies src into memory at pa. A write repairs any poison its range
// covers; the fault hook may corrupt the stored bytes or re-poison the line.
func (m *PhysMem) Write(pa PA, src []byte) error {
	if err := m.checkRange("write", pa, uint64(len(src))); err != nil {
		return err
	}
	copy(m.data[pa:], src)
	m.markDirty(pa, uint64(len(src)))
	m.ClearPoison(pa, uint64(len(src)))
	if m.hook != nil {
		if m.hook.WriteFault(pa, m.data[pa:uint64(pa)+uint64(len(src))]) {
			m.PoisonCacheline(pa)
		}
	}
	return nil
}

// inFrameFast reports whether a width-byte access at pa stays inside one
// allocated frame — the metadata fast path (page-table entries, rPTEs,
// queue cursors are naturally aligned and never split pages). It subsumes
// checkRange for such accesses: in-bounds, single frame, frame allocated.
// Anything else (page-spanning, out of range) takes the legacy slow path.
func (m *PhysMem) inFrameFast(pa PA, width uint64) bool {
	i := uint64(pa)
	return i&PageMask <= PageSize-width &&
		i <= uint64(len(m.data))-width &&
		m.alloced[i>>PageShift]
}

// ReadU64 reads a little-endian uint64 at pa.
func (m *PhysMem) ReadU64(pa PA) (uint64, error) {
	if m.inFrameFast(pa, 8) {
		return binary.LittleEndian.Uint64(m.data[pa:]), nil
	}
	if err := m.checkRange("read", pa, 8); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(m.data[pa:]), nil
}

// WriteU64 writes a little-endian uint64 at pa.
func (m *PhysMem) WriteU64(pa PA, v uint64) error {
	if !m.inFrameFast(pa, 8) {
		if err := m.checkRange("write", pa, 8); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(m.data[pa:], v)
	m.markDirty(pa, 8)
	return nil
}

// ReadU32 reads a little-endian uint32 at pa.
func (m *PhysMem) ReadU32(pa PA) (uint32, error) {
	if m.inFrameFast(pa, 4) {
		return binary.LittleEndian.Uint32(m.data[pa:]), nil
	}
	if err := m.checkRange("read", pa, 4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(m.data[pa:]), nil
}

// WriteU32 writes a little-endian uint32 at pa.
func (m *PhysMem) WriteU32(pa PA, v uint32) error {
	if !m.inFrameFast(pa, 4) {
		if err := m.checkRange("write", pa, 4); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(m.data[pa:], v)
	m.markDirty(pa, 4)
	return nil
}

// Fill sets size bytes at pa to b, repairing any poison in the range.
func (m *PhysMem) Fill(pa PA, size uint64, b byte) error {
	if err := m.checkRange("write", pa, size); err != nil {
		return err
	}
	for i := uint64(0); i < size; i++ {
		m.data[uint64(pa)+i] = b
	}
	m.markDirty(pa, size)
	m.ClearPoison(pa, size)
	return nil
}

// Span returns a mutable view of [pa, pa+size): the metadata fast path for
// simulated structures touched on every operation (descriptor rings, flat
// rPTE tables). The whole range must be allocated when the view is taken and
// stay allocated for the view's lifetime — it aliases the backing array
// directly, so it must not outlive a Release. Like the typed accessors,
// access through the view bypasses fault hooks and poison (metadata
// integrity is modeled at the device layer, and DMA paths to the same bytes
// still see every store). The range is conservatively marked dirty up front.
func (m *PhysMem) Span(pa PA, size uint64) ([]byte, error) {
	if err := m.checkRange("span", pa, size); err != nil {
		return nil, err
	}
	m.markDirty(pa, size)
	end := uint64(pa) + size
	return m.data[pa:end:end], nil
}

// markDirty records that the frames covering [pa, pa+size) no longer hold
// known-zero bytes; they will be memclr'd if reallocated (possibly in a
// later pooled life of the backing array). Callers have already
// bounds-checked the range. Writes outside the typed accessors, Write, and
// Fill do not exist: every data mutation flows through this closed set, so
// the dirty map is exact.
func (m *PhysMem) markDirty(pa PA, size uint64) {
	if size == 0 {
		return
	}
	first := uint64(pa) >> PageShift
	last := (uint64(pa) + size - 1) >> PageShift
	for f := first; f <= last; f++ {
		m.dirty[f] = true
	}
}

// CachelinesSpanned returns how many cachelines the byte range [pa, pa+size)
// touches; used to charge per-cacheline flush costs.
func CachelinesSpanned(pa PA, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	first := uint64(pa) / CachelineSize
	last := (uint64(pa) + size - 1) / CachelineSize
	return last - first + 1
}
