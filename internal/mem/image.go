package mem

import (
	"maps"
	"slices"
)

// Image is a compact, read-only copy of a PhysMem's observable state: the
// allocator (watermark, free stack, first-free hint), the per-frame
// metadata below the watermark, poison, and the bytes of every allocated
// frame that holds nonzero data. It holds no backing array, so a
// long-lived image costs kilobytes where a PhysMem costs its full size, and
// many goroutines may Restore one image concurrently.
type Image struct {
	size     uint64
	alloced  []bool   // frames [0, hi): the metadata prefix
	pinCount []uint32 // frames [0, hi)
	held     []PFN    // allocated nonzero frames below hi, ascending
	data     []byte   // held frames' bytes, PageSize each, in held order

	free      []PFN
	watermark PFN
	lazy      bool
	lowFree   PFN
	poison    map[uint64]struct{}
}

// metaHi bounds the frames whose metadata may be set: the watermark
// allocator hands frames out in ascending order, so nothing at or above the
// watermark was ever allocated, while a materialized free list hands
// frames out from the top.
func (m *PhysMem) metaHi() int {
	if m.lazy {
		return int(m.watermark)
	}
	return m.frames
}

// Image captures m's state. Only allocated frames holding a nonzero byte
// contribute bytes: a frame of zeros is restored by clearing it, and an
// unallocated frame is zeroed when it is next handed out, so its stale
// contents are never observable.
func (m *PhysMem) Image() *Image {
	hi := m.metaHi()
	img := &Image{
		size:      uint64(len(m.data)),
		alloced:   slices.Clone(m.alloced[:hi]),
		pinCount:  slices.Clone(m.pinCount[:hi]),
		free:      slices.Clone(m.free),
		watermark: m.watermark,
		lazy:      m.lazy,
		lowFree:   m.lowFree,
		poison:    maps.Clone(m.poison),
	}
	for f := PFN(0); int(f) < hi; f++ {
		if m.alloced[f] && m.dirty[f] && slices.ContainsFunc(m.frame(f), func(b byte) bool { return b != 0 }) {
			img.held = append(img.held, f)
		}
	}
	img.data = make([]byte, 0, len(img.held)*PageSize)
	for _, f := range img.held {
		img.data = append(img.data, m.frame(f)...)
	}
	return img
}

// Frames returns how many frames' bytes the image holds.
func (img *Image) Frames() int { return len(img.held) }

// Restore builds a PhysMem equal to the one the image was taken from, on a
// backing array taken from the per-size pool. Every frame below the
// watermark that the backing's earlier life dirtied and the image does not
// hold is zeroed; frames above it keep their dirty marks and are zeroed
// when handed out, exactly as after New.
func (img *Image) Restore() *PhysMem {
	bk := getBacking(img.size)
	m := &PhysMem{
		data:      bk.data,
		frames:    int(img.size / PageSize),
		free:      slices.Clone(img.free),
		watermark: img.watermark,
		lazy:      img.lazy,
		lowFree:   img.lowFree,
		alloced:   bk.alloced,
		pinCount:  bk.pinCount,
		dirty:     bk.dirty,
		bk:        bk,
		poison:    maps.Clone(img.poison),
	}
	copy(m.alloced, img.alloced)
	copy(m.pinCount, img.pinCount)
	held := img.held
	for f := PFN(0); int(f) < len(img.alloced); f++ {
		if len(held) > 0 && held[0] == f {
			i := len(img.held) - len(held)
			copy(m.frame(f), img.data[i*PageSize:(i+1)*PageSize])
			m.dirty[f] = true
			held = held[1:]
			continue
		}
		m.clearFrame(f)
	}
	return m
}

// frame returns frame f's bytes.
func (m *PhysMem) frame(f PFN) []byte {
	base := uint64(f.PA())
	return m.data[base : base+PageSize]
}
