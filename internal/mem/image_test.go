package mem

import (
	"bytes"
	"maps"
	"slices"
	"testing"
)

// imageLife drives m through a random life: single and contiguous
// allocations, frees, bulk writes, writes through a Span view, pins and
// poisoned cachelines. Every op is two bytes; ops that do not apply to the
// current state are skipped.
func imageLife(t *testing.T, m *PhysMem, ops []byte) {
	t.Helper()
	var held []PFN
	for ; len(ops) >= 2; ops = ops[2:] {
		op, arg := ops[0]%7, int(ops[1])
		switch op {
		case 0, 1:
			n := 1
			if op == 1 {
				n = 1 + arg%4
			}
			f, err := m.AllocFrames(n)
			if err != nil {
				continue
			}
			for g := f; g < f+PFN(n); g++ {
				held = append(held, g)
			}
			continue
		}
		if len(held) == 0 {
			continue
		}
		i := arg % len(held)
		f := held[i]
		off := PA(arg*61) % (PageSize - 16)
		switch op {
		case 2:
			if m.FreeFrame(f) == nil {
				held = slices.Delete(held, i, i+1)
			}
		case 3:
			if err := m.Write(f.PA()+off, []byte{byte(arg), 0xa5, byte(f)}); err != nil {
				t.Fatal(err)
			}
		case 4:
			v, err := m.Span(f.PA()+off, 16)
			if err != nil {
				t.Fatal(err)
			}
			v[arg%16] = byte(arg) | 1
		case 5:
			if arg&1 == 0 {
				if err := m.Pin(f.PA()); err != nil {
					t.Fatal(err)
				}
			} else if m.Pinned(f.PA()) {
				if err := m.Unpin(f.PA()); err != nil {
					t.Fatal(err)
				}
			}
		case 6:
			m.PoisonCacheline(f.PA() + off)
		}
	}
}

// sameMemory fails unless got is observably m: the same metadata and
// allocator state, the same bytes in every allocated frame, and only
// known-zero bytes in every clean frame of got.
func sameMemory(t *testing.T, got, want *PhysMem) {
	t.Helper()
	if got.watermark != want.watermark || got.lazy != want.lazy || got.lowFree != want.lowFree {
		t.Fatalf("allocator state (wm %d lazy %v low %d), want (%d %v %d)",
			got.watermark, got.lazy, got.lowFree, want.watermark, want.lazy, want.lowFree)
	}
	if !slices.Equal(got.free, want.free) {
		t.Fatalf("free stack %v, want %v", got.free, want.free)
	}
	if !maps.Equal(got.poison, want.poison) {
		t.Fatalf("poison %v, want %v", got.poison, want.poison)
	}
	for f := PFN(0); int(f) < want.frames; f++ {
		if got.alloced[f] != want.alloced[f] || got.pinCount[f] != want.pinCount[f] {
			t.Fatalf("frame %d: alloced %v pins %d, want %v %d",
				f, got.alloced[f], got.pinCount[f], want.alloced[f], want.pinCount[f])
		}
		if want.alloced[f] && !bytes.Equal(got.frame(f), want.frame(f)) {
			t.Fatalf("frame %d bytes differ", f)
		}
		if !got.dirty[f] && slices.ContainsFunc(got.frame(f), func(b byte) bool { return b != 0 }) {
			t.Fatalf("frame %d is marked clean but holds nonzero bytes", f)
		}
	}
}

// FuzzMemImage checks Image/Restore: restoring life A's image onto a
// backing that life B dirtied yields life A's memory, and both allocate
// identically from there on.
func FuzzMemImage(f *testing.F) {
	f.Add(uint8(8), []byte{0, 0, 1, 2, 3, 9, 4, 5, 2, 0}, []byte{1, 3, 3, 0, 3, 1, 4, 2})
	f.Add(uint8(16), []byte{1, 3, 1, 3, 2, 1, 1, 2, 3, 4, 5, 0, 6, 7, 0, 0}, []byte{0, 0, 0, 0, 3, 0, 3, 1, 4, 7})
	f.Add(uint8(5), []byte{0, 0, 0, 0, 0, 0, 2, 0, 2, 1, 1, 1}, []byte{1, 3, 1, 3, 3, 5, 3, 6, 6, 1})
	f.Fuzz(func(t *testing.T, frames uint8, lifeA, lifeB []byte) {
		// A size no other test uses, so life B's backing is the one Restore
		// is most likely to recycle.
		size := uint64(3+frames%40) * PageSize * 3
		a := mustMem(t, size)
		defer a.Release()
		imageLife(t, a, lifeA)
		img := a.Image()

		b := mustMem(t, size)
		imageLife(t, b, lifeB)
		b.Release()
		r := img.Restore()
		defer r.Release()
		sameMemory(t, r, a)

		for i := 0; ; i++ {
			n := 1 + i%3
			fa, errA := a.AllocFrames(n)
			fr, errR := r.AllocFrames(n)
			if fa != fr || (errA == nil) != (errR == nil) {
				t.Fatalf("AllocFrames(%d) #%d = %d, %v; want %d, %v", n, i, fr, errR, fa, errA)
			}
			if errA != nil {
				break
			}
			if err := r.Write(fr.PA(), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			if err := a.Write(fa.PA(), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		sameMemory(t, r, a)
	})
}
