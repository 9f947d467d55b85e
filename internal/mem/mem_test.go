package mem

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) should fail")
	}
	if _, err := New(PageSize + 1); err == nil {
		t.Error("New(PageSize+1) should fail")
	}
	m, err := New(16 * PageSize)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.Size() != 16*PageSize {
		t.Errorf("Size = %d", m.Size())
	}
	if m.Frames() != 16 {
		t.Errorf("Frames = %d", m.Frames())
	}
	// Frame 0 reserved.
	if m.FreeFrames() != 15 {
		t.Errorf("FreeFrames = %d, want 15", m.FreeFrames())
	}
}

func TestNewTooSmallErrors(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("New(1) did not return an error")
	}
}

func TestAllocFrameZeroesAndExhaustion(t *testing.T) {
	m := mustMem(t, 4*PageSize) // frames 1..3 usable
	seen := map[PFN]bool{}
	for i := 0; i < 3; i++ {
		f, err := m.AllocFrame()
		if err != nil {
			t.Fatalf("AllocFrame %d: %v", i, err)
		}
		if f == 0 {
			t.Fatal("allocated reserved frame 0")
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
		b, err := m.Read(f.PA(), PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range b {
			if x != 0 {
				t.Fatal("frame not zeroed")
			}
		}
	}
	if _, err := m.AllocFrame(); err == nil {
		t.Error("expected exhaustion error")
	}
}

func TestAllocFrameReZeroesRecycled(t *testing.T) {
	m := mustMem(t, 4*PageSize)
	f, _ := m.AllocFrame()
	if err := m.Write(f.PA(), []byte{0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	if err := m.FreeFrame(f); err != nil {
		t.Fatal(err)
	}
	// Drain and find the recycled frame again.
	for i := 0; i < 3; i++ {
		g, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		b, _ := m.Read(g.PA(), 2)
		if b[0] != 0 || b[1] != 0 {
			t.Fatalf("recycled frame %d not zeroed", g)
		}
	}
}

func TestAllocFramesContiguous(t *testing.T) {
	m := mustMem(t, 16*PageSize)
	f, err := m.AllocFrames(4)
	if err != nil {
		t.Fatalf("AllocFrames(4): %v", err)
	}
	// The run must be contiguous and writable end to end.
	if err := m.Fill(f.PA(), 4*PageSize, 0xab); err != nil {
		t.Fatalf("Fill across run: %v", err)
	}
	if _, err := m.AllocFrames(0); err == nil {
		t.Error("AllocFrames(0) should fail")
	}
	if _, err := m.AllocFrames(100); err == nil {
		t.Error("AllocFrames(100) should fail on 16-frame memory")
	}
}

func TestAllocFramesSkipsHoles(t *testing.T) {
	m := mustMem(t, 8*PageSize)
	var frames []PFN
	for i := 0; i < 7; i++ {
		f, err := m.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	// Free frames 2,3 and 5,6 (two 2-frame holes) plus a singleton.
	for _, f := range []PFN{frames[1], frames[2], frames[4], frames[5]} {
		if err := m.FreeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	f, err := m.AllocFrames(2)
	if err != nil {
		t.Fatalf("AllocFrames(2) with holes available: %v", err)
	}
	if err := m.Fill(f.PA(), 2*PageSize, 1); err != nil {
		t.Fatalf("hole not contiguous: %v", err)
	}
	if _, err := m.AllocFrames(3); err == nil {
		t.Error("AllocFrames(3) should fail: only 2-frame holes remain")
	}
}

func TestFreeFrameErrors(t *testing.T) {
	m := mustMem(t, 4*PageSize)
	if err := m.FreeFrame(0); err == nil {
		t.Error("freeing reserved frame 0 should fail")
	}
	if err := m.FreeFrame(2); err == nil {
		t.Error("freeing unallocated frame should fail")
	}
	if err := m.FreeFrame(99); err == nil {
		t.Error("freeing out-of-range frame should fail")
	}
	f, _ := m.AllocFrame()
	if err := m.FreeFrame(f); err != nil {
		t.Errorf("FreeFrame: %v", err)
	}
	if err := m.FreeFrame(f); err == nil {
		t.Error("double free should fail")
	}
}

func TestPinning(t *testing.T) {
	m := mustMem(t, 4*PageSize)
	f, _ := m.AllocFrame()
	pa := f.PA() + 100

	if m.Pinned(pa) {
		t.Error("fresh frame reported pinned")
	}
	if err := m.Pin(pa); err != nil {
		t.Fatalf("Pin: %v", err)
	}
	if !m.Pinned(pa) {
		t.Error("Pinned = false after Pin")
	}
	if err := m.FreeFrame(f); err == nil {
		t.Error("freeing pinned frame should fail")
	}
	if err := m.Pin(pa); err != nil { // pin count 2
		t.Fatal(err)
	}
	if err := m.Unpin(pa); err != nil {
		t.Fatal(err)
	}
	if !m.Pinned(pa) {
		t.Error("frame unpinned too early (count should be 1)")
	}
	if err := m.Unpin(pa); err != nil {
		t.Fatal(err)
	}
	if m.Pinned(pa) {
		t.Error("frame still pinned after balanced unpins")
	}
	if err := m.Unpin(pa); err == nil {
		t.Error("unpinning unpinned frame should fail")
	}
	if err := m.FreeFrame(f); err != nil {
		t.Errorf("FreeFrame after unpin: %v", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := mustMem(t, 4*PageSize)
	f, _ := m.AllocFrame()
	pa := f.PA()

	want := []byte{1, 2, 3, 4, 5}
	if err := m.Write(pa+10, want); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(pa+10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Read = %v, want %v", got, want)
		}
	}
	dst := make([]byte, 5)
	if err := m.ReadInto(pa+10, dst); err != nil {
		t.Fatal(err)
	}
	if dst[4] != 5 {
		t.Errorf("ReadInto = %v", dst)
	}
}

func TestTypedAccessors(t *testing.T) {
	m := mustMem(t, 4*PageSize)
	f, _ := m.AllocFrame()
	pa := f.PA()

	if err := m.WriteU64(pa, 0xdeadbeefcafebabe); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadU64(pa)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeefcafebabe {
		t.Errorf("ReadU64 = %#x", v)
	}
	if err := m.WriteU32(pa+8, 0x12345678); err != nil {
		t.Fatal(err)
	}
	w, err := m.ReadU32(pa + 8)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0x12345678 {
		t.Errorf("ReadU32 = %#x", w)
	}
}

func TestAccessToUnallocatedFails(t *testing.T) {
	m := mustMem(t, 8*PageSize)
	// Frame 2 not allocated.
	if _, err := m.Read(PA(2*PageSize), 4); err == nil {
		t.Error("read of unallocated frame should fail")
	}
	if err := m.Write(PA(2*PageSize), []byte{1}); err == nil {
		t.Error("write to unallocated frame should fail")
	}
	if _, err := m.ReadU64(PA(m.Size() - 4)); err == nil {
		t.Error("read past end should fail")
	}
	// Range spanning allocated into unallocated must fail.
	f, _ := m.AllocFrame()
	if err := m.Fill(f.PA(), 2*PageSize, 1); err == nil {
		t.Error("fill spanning into unallocated frame should fail")
	}
	var ae *AccessError
	_, err := m.Read(PA(2*PageSize), 4)
	if !errors.As(err, &ae) {
		t.Errorf("error type = %T, want *AccessError", err)
	} else if ae.Error() == "" {
		t.Error("empty error string")
	}
}

func TestPFNConversions(t *testing.T) {
	if PFN(3).PA() != PA(3*PageSize) {
		t.Error("PFN.PA wrong")
	}
	if PFNOf(PA(3*PageSize+17)) != 3 {
		t.Error("PFNOf wrong")
	}
}

func TestCachelinesSpanned(t *testing.T) {
	cases := []struct {
		pa   PA
		size uint64
		want uint64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 64, 1},
		{0, 65, 2},
		{63, 2, 2},
		{64, 64, 1},
		{60, 8, 2},
		{0, 128, 2},
	}
	for _, c := range cases {
		if got := CachelinesSpanned(c.pa, c.size); got != c.want {
			t.Errorf("CachelinesSpanned(%d,%d) = %d, want %d", c.pa, c.size, got, c.want)
		}
	}
}

// Property: alloc/free/alloc cycles never hand out frame 0, never double
// allocate, and FreeFrames is conserved.
func TestAllocFreeProperty(t *testing.T) {
	f := func(ops []bool) bool {
		m := mustMem(t, 32*PageSize)
		live := map[PFN]bool{}
		var order []PFN
		for _, alloc := range ops {
			if alloc {
				fr, err := m.AllocFrame()
				if err != nil {
					if len(live) != 31 {
						return false // exhaustion only when truly full
					}
					continue
				}
				if fr == 0 || live[fr] {
					return false
				}
				live[fr] = true
				order = append(order, fr)
			} else if len(order) > 0 {
				fr := order[len(order)-1]
				order = order[:len(order)-1]
				if err := m.FreeFrame(fr); err != nil {
					return false
				}
				delete(live, fr)
			}
		}
		return m.FreeFrames() == 31-len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: writes round-trip through reads at arbitrary in-frame offsets.
func TestWriteReadProperty(t *testing.T) {
	m := mustMem(t, 8*PageSize)
	f, _ := m.AllocFrame()
	base := f.PA()
	prop := func(off uint16, data []byte) bool {
		o := uint64(off) % (PageSize - 256)
		if len(data) > 256 {
			data = data[:256]
		}
		if err := m.Write(base+PA(o), data); err != nil {
			return false
		}
		got, err := m.Read(base+PA(o), uint64(len(data)))
		if err != nil {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// refFrames is the frame allocator the lazy free list and the first-free
// hint replaced, kept as the reference FuzzAllocFrames compares against: an
// eager free list (never-allocated frames in descending order, then freed
// frames in push order) popped from the end, and a contiguous allocation
// that scans for a first fit from frame 1 and swap-removes its frames.
type refFrames struct {
	alloced []bool
	free    []PFN
}

func newRefFrames(frames int) *refFrames {
	r := &refFrames{alloced: make([]bool, frames)}
	r.alloced[0] = true
	for f := frames - 1; f >= 1; f-- {
		r.free = append(r.free, PFN(f))
	}
	return r
}

func (r *refFrames) allocFrames(n int) (PFN, bool) {
	if n == 1 {
		if len(r.free) == 0 {
			return 0, false
		}
		f := r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
		r.alloced[f] = true
		return f, true
	}
	run := 0
	for f := 1; f < len(r.alloced); f++ {
		if r.alloced[f] {
			run = 0
			continue
		}
		if run++; run == n {
			first := PFN(f - n + 1)
			for g := first; g <= PFN(f); g++ {
				i := slices.Index(r.free, g)
				r.free[i] = r.free[len(r.free)-1]
				r.free = r.free[:len(r.free)-1]
				r.alloced[g] = true
			}
			return first, true
		}
	}
	return 0, false
}

func (r *refFrames) freeFrame(f PFN) bool {
	if f == 0 || int(f) >= len(r.alloced) || !r.alloced[f] {
		return false
	}
	r.alloced[f] = false
	r.free = append(r.free, f)
	return true
}

// FuzzAllocFrames drives PhysMem and the frame-1 first-fit reference with
// the same random AllocFrame/AllocFrames/FreeFrame sequence and requires the
// same PFNs, the same failures and zeroed frames throughout. The first byte
// sizes the memory; if its top bit is set, the memory is built on a backing
// recycled from a fully allocated, dirtied and materialized earlier life.
// Each following op is 2 bytes; op 3 forces the lazy free list to
// materialize.
func FuzzAllocFrames(f *testing.F) {
	f.Add([]byte{8, 1, 1, 1, 1, 2, 0, 2, 1, 1, 1})
	f.Add([]byte{16, 1, 1, 1, 1, 2, 0, 2, 0, 1, 1})
	f.Add([]byte{0x90, 0, 0, 0, 0, 0, 0, 2, 1, 1, 2, 3, 1, 0, 3, 0, 1, 3})
	f.Add([]byte{24, 0, 0, 0, 0, 0, 0, 2, 1, 3, 1, 1, 3, 0, 0, 2, 0, 1, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		frames := 4 + int(ops[0]&0x3f)
		size := uint64(frames) * PageSize
		if ops[0]&0x80 != 0 {
			old := mustMem(t, size)
			for g := PFN(1); g < PFN(frames); g++ {
				if _, err := old.AllocFrame(); err != nil {
					t.Fatal(err)
				}
				if err := old.Fill(g.PA(), PageSize, 0xee); err != nil {
					t.Fatal(err)
				}
			}
			for g := PFN(2); g < PFN(frames); g += 2 {
				if err := old.FreeFrame(g); err != nil {
					t.Fatal(err)
				}
			}
			old.materialize()
			old.Release()
		}
		m := mustMem(t, size)
		defer m.Release()
		ref := newRefFrames(frames)
		var held []PFN
		for ops = ops[1:]; len(ops) >= 2; ops = ops[2:] {
			switch ops[0] % 4 {
			case 0, 1:
				n := 1
				if ops[0]%4 == 1 {
					n = 1 + int(ops[1]%5)
				}
				want, ok := ref.allocFrames(n)
				got, err := m.AllocFrames(n)
				if ok != (err == nil) || ok && got != want {
					t.Fatalf("AllocFrames(%d) = %d, %v; reference %d, %v", n, got, err, want, ok)
				}
				if !ok {
					continue
				}
				b, err := m.Read(got.PA(), uint64(n)*PageSize)
				if err != nil {
					t.Fatal(err)
				}
				if slices.ContainsFunc(b, func(x byte) bool { return x != 0 }) {
					t.Fatalf("AllocFrames(%d) = %d not zeroed", n, got)
				}
				if err := m.Fill(got.PA(), uint64(n)*PageSize, 0xa5); err != nil {
					t.Fatal(err)
				}
				for g := got; g < got+PFN(n); g++ {
					held = append(held, g)
				}
			case 2:
				g := PFN(ops[1]) % PFN(frames)
				if len(held) > 0 && ops[0]&4 == 0 {
					g = held[int(ops[1])%len(held)]
				}
				if ok, err := ref.freeFrame(g), m.FreeFrame(g); ok != (err == nil) {
					t.Fatalf("FreeFrame(%d) = %v, reference ok=%v", g, err, ok)
				}
				held = slices.DeleteFunc(held, func(h PFN) bool { return h == g })
			case 3:
				if m.lazy {
					m.materialize()
				}
			}
			if m.FreeFrames() != len(ref.free) {
				t.Fatalf("FreeFrames = %d, reference %d", m.FreeFrames(), len(ref.free))
			}
			for g := PFN(1); g < m.lowFree; g++ {
				if !m.alloced[g] {
					t.Fatalf("frame %d below the first-free hint %d is free", g, m.lowFree)
				}
			}
		}
	})
}

// BenchmarkAllocFramesSteer times the traffic engine's steering-table set-up
// shape: 2,048 four-frame AllocFrames calls on a fresh memory.
func BenchmarkAllocFramesSteer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := mustMem(b, 16384*PageSize)
		for j := 0; j < 2048; j++ {
			if _, err := m.AllocFrames(4); err != nil {
				b.Fatal(err)
			}
		}
		m.Release()
	}
}
