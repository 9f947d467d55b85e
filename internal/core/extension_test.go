package core

import (
	"bytes"
	"errors"
	"testing"

	"riommu/internal/detrand"
	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// TestMapAtOutOfOrder exercises the §4 AHCI extension: slot-indexed flat
// table entries unmapped in arbitrary completion order.
func TestMapAtOutOfOrder(t *testing.T) {
	d, hw, mm, _ := setup(t, true, 32)
	pa := buffer(t, mm)

	// Map 8 slots explicitly.
	iovas := make([]uint64, 8)
	for i := range iovas {
		v, err := d.MapAt(0, uint32(i), pa+mem.PA(i*64), 64, pci.DirBidi)
		if err != nil {
			t.Fatalf("MapAt %d: %v", i, err)
		}
		iovas[i] = v
		if IOVA(v).REntry() != uint32(i) {
			t.Fatalf("MapAt %d returned rentry %d", i, IOVA(v).REntry())
		}
	}
	// Translate and unmap in shuffled order; every access must be exact.
	order := []int{5, 1, 7, 0, 3, 6, 2, 4}
	for n, i := range order {
		got, err := hw.Rtranslate(dev, IOVA(iovas[i]), pci.DirFromDevice)
		if err != nil {
			t.Fatalf("translate slot %d: %v", i, err)
		}
		if got != pa+mem.PA(i*64) {
			t.Fatalf("slot %d -> %#x", i, got)
		}
		if err := d.Unmap(0, iovas[i], 0, n == len(order)-1); err != nil {
			t.Fatalf("unmap slot %d: %v", i, err)
		}
	}
	if d.Device().Ring(0).Mapped() != 0 {
		t.Error("nmapped != 0 after out-of-order drain")
	}
}

func TestMapAtValidation(t *testing.T) {
	d, _, mm, _ := setup(t, true, 8)
	pa := buffer(t, mm)
	if _, err := d.MapAt(9, 0, pa, 64, pci.DirBidi); err == nil {
		t.Error("bad ring should fail")
	}
	if _, err := d.MapAt(0, 99, pa, 64, pci.DirBidi); err == nil {
		t.Error("out-of-range rentry should fail")
	}
	if _, err := d.MapAt(0, 0, pa, 0, pci.DirBidi); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := d.MapAt(0, 0, pa, 64, pci.DirNone); err == nil {
		t.Error("no direction should fail")
	}
	if _, err := d.MapAt(0, 3, pa, 64, pci.DirBidi); err != nil {
		t.Fatal(err)
	}
	if _, err := d.MapAt(0, 3, pa, 64, pci.DirBidi); err == nil {
		t.Error("double MapAt on a slot should fail")
	}
}

// TestMapTailCollisionGuard: ordinary Map must refuse to overwrite a live
// entry left behind by out-of-order unmaps.
func TestMapTailCollisionGuard(t *testing.T) {
	d, _, mm, _ := setup(t, true, 4)
	pa := buffer(t, mm)
	var vs []uint64
	for i := 0; i < 3; i++ {
		v, err := d.Map(0, pa, 64, pci.DirBidi)
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}
	// Free the middle two out of order; entry 0 stays live. Tail is at 3;
	// after one more map (slot 3), the next map would land on live slot 0.
	if err := d.Unmap(0, vs[2], 0, false); err != nil {
		t.Fatal(err)
	}
	if err := d.Unmap(0, vs[1], 0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Map(0, pa, 64, pci.DirBidi); err != nil { // slot 3
		t.Fatal(err)
	}
	// nmapped = 2 < size = 4, but slot 0 is still valid: must refuse.
	if _, err := d.Map(0, pa, 64, pci.DirBidi); !errors.Is(err, ErrOverflow) {
		t.Errorf("tail collision returned %v, want ErrOverflow", err)
	}
}

// TestSATAUnderRIOMMU drives the AHCI device through rIOMMU protection with
// MapAt slot-indexed mappings and shuffled completion order — the full §4
// extension working end to end.
func TestSATAUnderRIOMMU(t *testing.T) {
	d, hw, mm, _ := setup(t, true, device.SATASlots)
	eng := dma.NewEngine(mm, hw)
	disk := device.NewSATA(dev, eng, 512, 4096)

	// For each command: reserve the AHCI slot, bind the buffer to the flat
	// table entry with the same index, then issue with the rIOVA.
	iovas := map[int]uint64{}
	for i := 0; i < 16; i++ {
		f, err := mm.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := mm.Write(f.PA(), bytes.Repeat([]byte{byte(i + 1)}, 512)); err != nil {
			t.Fatal(err)
		}
		iova, err := d.MapAt(0, uint32(i), f.PA(), 512, pci.DirToDevice)
		if err != nil {
			t.Fatal(err)
		}
		slot, err := disk.Issue(device.SATACommand{BufIOVA: iova, Block: uint64(i), Length: 512, Op: device.SATAWrite})
		if err != nil {
			t.Fatal(err)
		}
		if slot != i {
			t.Fatalf("slot %d != %d", slot, i)
		}
		iovas[slot] = iova
	}
	rng := detrand.Source(7)
	order, err := disk.CompleteAll(&rng)
	if err != nil {
		t.Fatalf("out-of-order completion through rIOMMU: %v", err)
	}
	if len(order) != 16 {
		t.Fatalf("completed %d", len(order))
	}
	// Unmap in the (shuffled) completion order.
	for n, slot := range order {
		if err := d.Unmap(0, iovas[slot], 0, n == len(order)-1); err != nil {
			t.Fatalf("unmap slot %d: %v", slot, err)
		}
	}
	if hw.Stats().Faults != 0 {
		t.Errorf("faults = %d", hw.Stats().Faults)
	}
	if disk.Commands != 16 {
		t.Errorf("disk processed %d commands", disk.Commands)
	}
}

// TestDisablePrefetchStillCorrect: §4 says the design works just as well
// without the prefetched next field — correctness is unchanged, only the
// device-side fetch count grows.
func TestDisablePrefetchStillCorrect(t *testing.T) {
	d, hw, mm, _ := setup(t, true, 64)
	hw.DisablePrefetch = true
	pa := buffer(t, mm)
	var vs []uint64
	for i := 0; i < 32; i++ {
		v, err := d.Map(0, pa+mem.PA(i*64), 64, pci.DirFromDevice)
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}
	for i, v := range vs {
		got, err := hw.Rtranslate(dev, IOVA(v), pci.DirFromDevice)
		if err != nil {
			t.Fatalf("translate %d: %v", i, err)
		}
		if got != pa+mem.PA(i*64) {
			t.Fatalf("translate %d wrong", i)
		}
	}
	st := hw.Stats()
	if st.PrefetchHits != 0 {
		t.Errorf("PrefetchHits = %d with prefetch disabled", st.PrefetchHits)
	}
	if st.TableFetches != 32 {
		t.Errorf("TableFetches = %d, want 32 (every translation walks)", st.TableFetches)
	}
	for i, v := range vs {
		if err := d.Unmap(0, v, 0, i == len(vs)-1); err != nil {
			t.Fatal(err)
		}
	}
}
