// Package baseline implements the OS-side baseline IOMMU driver evaluated by
// the paper: the map and unmap flows of Figures 4 and 6 under the four Linux
// protection modes of §3.2 —
//
//   - strict:  map/unmap exactly per the figures; single-entry IOTLB
//     invalidation on every unmap (completely safe).
//   - strict+: strict with the authors' constant-time IOVA allocator.
//   - defer:   IOTLB invalidations are queued and processed in bulk with one
//     global flush per 250 accumulated unmaps, trading safety (a stale-entry
//     window) for performance.
//   - defer+:  defer with the constant-time allocator.
//
// Every step charges the virtual clock with the component costs of Table 1.
package baseline

import (
	"fmt"
	"slices"

	"riommu/internal/cycles"
	"riommu/internal/dma"
	"riommu/internal/faults"
	"riommu/internal/iommu"
	"riommu/internal/iotlb"
	"riommu/internal/iova"
	"riommu/internal/mem"
	"riommu/internal/pagetable"
	"riommu/internal/pci"
)

// Mode selects one of the four baseline protection modes.
type Mode int

// The four Linux protection modes of §3.2.
const (
	Strict Mode = iota
	StrictPlus
	Defer
	DeferPlus
)

// String names the mode as in the paper.
func (m Mode) String() string {
	switch m {
	case Strict:
		return "strict"
	case StrictPlus:
		return "strict+"
	case Defer:
		return "defer"
	case DeferPlus:
		return "defer+"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Deferred reports whether the mode batches IOTLB invalidations.
func (m Mode) Deferred() bool { return m == Defer || m == DeferPlus }

// DeferBatch is the number of freed IOVAs Linux accumulates before flushing
// the entire IOTLB (§1, §3.2).
const DeferBatch = 250

// Driver is the per-device baseline IOMMU OS driver.
type Driver struct {
	mode  Mode
	clk   *cycles.Clock
	model *cycles.Model
	mm    *mem.PhysMem
	hw    *iommu.IOMMU
	bdf   pci.BDF

	space *pagetable.Space
	alloc iova.Allocator
	invq  *iommu.InvQueue
	aud   dma.MapObserver

	deferQ     []deferred
	deferBatch int
	live       int

	paScratch []mem.PA // Unmap's per-call page list, reused across calls
}

type deferred struct {
	iovaPFN uint64
	pages   uint64
}

// New creates a driver for the device bdf, allocating its address space and
// attaching it to the IOMMU hierarchy. coherent selects whether page-table
// updates need explicit cacheline flushes (the paper's machines: no).
func New(mode Mode, clk *cycles.Clock, model *cycles.Model, mm *mem.PhysMem, hw *iommu.IOMMU, bdf pci.BDF, coherent bool) (*Driver, error) {
	sp, err := pagetable.NewSpace(mm, clk, model, coherent)
	if err != nil {
		return nil, err
	}
	if err := hw.Hierarchy().Attach(bdf, sp); err != nil {
		return nil, err
	}
	var alloc iova.Allocator
	if mode == StrictPlus || mode == DeferPlus {
		alloc = iova.NewConst(clk, model, iova.DMA32PFN-1)
	} else {
		alloc = iova.NewLinux(clk, model, iova.DMA32PFN-1)
	}
	invq, err := iommu.NewInvQueue(mm, hw.TLB())
	if err != nil {
		return nil, err
	}
	return &Driver{
		mode:       mode,
		clk:        clk,
		model:      model,
		mm:         mm,
		hw:         hw,
		bdf:        bdf,
		space:      sp,
		alloc:      alloc,
		invq:       invq,
		deferBatch: DeferBatch,
	}, nil
}

// Clone returns an independent copy of the driver in a cloned world: hw is
// the clone of d's IOMMU, from whose hierarchy the copy takes its address
// space. The copy has no fault engine or observer installed.
func (d *Driver) Clone(mm *mem.PhysMem, hw *iommu.IOMMU, rb cycles.Rebind) (*Driver, error) {
	if d.hw.Hierarchy().Space(d.bdf) != d.space {
		return nil, fmt.Errorf("baseline: %s's address space is not attached; cannot clone", d.bdf)
	}
	c := *d
	c.clk, c.model, c.mm, c.hw = rb.Clock(d.clk), rb.Model, mm, hw
	c.space = hw.Hierarchy().Space(d.bdf)
	c.alloc = d.alloc.Clone(rb)
	c.invq = d.invq.Clone(mm, hw.TLB())
	c.aud = nil
	c.deferQ = slices.Clone(d.deferQ)
	c.paScratch = nil
	return &c, nil
}

// SetFaults threads the fault-injection engine into the driver's
// invalidation queue (dropped/delayed invalidations).
func (d *Driver) SetFaults(f *faults.Engine) { d.invq.SetFaults(f) }

// SetAudit installs a map/unmap observer (nil disables mirroring).
func (d *Driver) SetAudit(o dma.MapObserver) { d.aud = o }

// InvQueue exposes the invalidation queue (fault-injection statistics).
func (d *Driver) InvQueue() *iommu.InvQueue { return d.invq }

// SetDeferBatch overrides the deferred-invalidation batch size (default
// 250); used by the ablation experiments to sweep the safety/performance
// trade-off.
func (d *Driver) SetDeferBatch(n int) {
	if n > 0 {
		d.deferBatch = n
	}
}

// Live returns the number of currently mapped DMA buffers.
func (d *Driver) Live() int { return d.live }

// Allocator exposes the IOVA allocator (for pathology statistics).
func (d *Driver) Allocator() iova.Allocator { return d.alloc }

func pagesSpanned(pa mem.PA, size uint32) uint64 {
	first := uint64(pa) >> mem.PageShift
	last := (uint64(pa) + uint64(size) - 1) >> mem.PageShift
	return last - first + 1
}

// Map implements Figure 4: pin the target buffer, allocate an IOVA, insert
// the translation(s) into the page-table hierarchy, and return the IOVA the
// device driver will place in its DMA descriptor. The ring argument is
// ignored — baseline protection is per-device, not per-ring.
func (d *Driver) Map(_ int, pa mem.PA, size uint32, dir pci.Dir) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("baseline: mapping empty buffer")
	}
	pages := pagesSpanned(pa, size)
	base := mem.PA(uint64(pa) &^ uint64(mem.PageMask))
	for i := uint64(0); i < pages; i++ {
		if err := d.mm.Pin(base + mem.PA(i<<mem.PageShift)); err != nil {
			return 0, fmt.Errorf("baseline: pinning target buffer: %w", err)
		}
	}
	pfn, err := d.alloc.Alloc(pages) // charges MapIOVAAlloc
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < pages; i++ {
		frame := mem.PFNOf(base) + mem.PFN(i)
		if err := d.space.Map((pfn+i)<<mem.PageShift, frame, dir); err != nil {
			return 0, err
		}
	}
	d.clk.Charge(cycles.MapOther, d.model.MapFixed)
	d.live++
	iovaAddr := pfn<<mem.PageShift | uint64(pa)&mem.PageMask
	if d.aud != nil {
		d.aud.OnMap(d.bdf, iovaAddr, pa, size, dir)
	}
	return iovaAddr, nil
}

// Unmap implements Figure 6: remove the translation from the page tables,
// purge (or defer purging) the IOTLB entries, deallocate the IOVA, and unpin
// the buffer. endOfBurst is ignored — the baseline has no burst semantics.
func (d *Driver) Unmap(_ int, iovaAddr uint64, size uint32, _ bool) error {
	if size == 0 {
		return fmt.Errorf("baseline: unmapping empty buffer")
	}
	pages := pagesSpanned(mem.PA(iovaAddr), size)
	pfn := iovaAddr >> mem.PageShift
	if !d.alloc.Contains(pfn) {
		return fmt.Errorf("baseline: unmap of unmapped iova %#x", iovaAddr)
	}

	// (1) Remove from the page-table hierarchy; remember the physical pages
	// so the buffer can be unpinned afterwards.
	basePAs := d.paScratch[:0]
	defer func() { d.paScratch = basePAs[:0] }()
	for i := uint64(0); i < pages; i++ {
		va := (pfn + i) << mem.PageShift
		pa, _, err := d.space.Lookup(va)
		if err != nil {
			return fmt.Errorf("baseline: unmap of untranslated iova %#x: %w", va, err)
		}
		basePAs = append(basePAs, pa)
		if err := d.space.Unmap(va); err != nil {
			return err
		}
	}

	// (2) Purge the IOTLB — immediately (strict) or deferred in bulk.
	if d.mode.Deferred() {
		for i := uint64(0); i < pages; i++ {
			d.hw.TLB().MarkStale(iotlb.Key{BDF: d.bdf, IOVAPFN: pfn + i})
		}
		d.clk.Charge(cycles.UnmapIOTLBInv, d.model.DeferQueueOp)
		d.clk.Charge(cycles.UnmapOther, d.model.UnmapFixed+d.model.DeferUnmapExtra)
		d.deferQ = append(d.deferQ, deferred{iovaPFN: pfn, pages: pages})
		if len(d.deferQ) >= d.deferBatch {
			if err := d.flushDeferred(); err != nil {
				return err
			}
		}
	} else {
		// Strict: one queued-invalidation round trip per page — submit the
		// entry descriptor, then a wait descriptor, and spin (Table 1's
		// 2,127-cycle "iotlb inv" row is this submit+wait).
		for i := uint64(0); i < pages; i++ {
			if err := d.invq.SubmitEntry(d.bdf, pfn+i); err != nil {
				return err
			}
			if err := d.invq.Wait(); err != nil {
				return err
			}
			d.clk.Charge(cycles.UnmapIOTLBInv, d.model.IOTLBInvEntry)
		}
		// (3) Deallocate the IOVA (strict does it inline).
		if err := d.alloc.Free(pfn); err != nil {
			return err
		}
		d.clk.Charge(cycles.UnmapOther, d.model.UnmapFixed)
	}

	// (4) Unpin; the buffer returns to the upper software layers. In the
	// deferred modes this happens *before* the IOTLB flush — exactly the
	// vulnerability window the paper describes.
	for _, pa := range basePAs {
		if err := d.mm.Unpin(pa); err != nil {
			return err
		}
	}
	d.live--
	if d.aud != nil {
		// The mapping is dead from the OS's perspective right here — in the
		// deferred modes the IOTLB still holds it, which is exactly the
		// window the auditor measures.
		d.aud.OnUnmap(d.bdf, iovaAddr)
	}
	return nil
}

// flushDeferred processes the accumulated invalidations: one global IOTLB
// flush amortized over the batch, then the queued IOVA deallocations. Errors
// propagate to the caller (an Unmap or FlushPending); the deferred queue is
// left intact so a later flush can retry.
func (d *Driver) flushDeferred() error {
	// One queued global flush for the whole batch. Table 1 attributes the
	// amortized cost to the queue-management "other" row, keeping
	// "iotlb inv" at the pure 9-cycle queue insert.
	if err := d.invq.SubmitGlobal(); err != nil {
		return fmt.Errorf("baseline: deferred flush: %w", err)
	}
	if err := d.invq.Wait(); err != nil {
		return fmt.Errorf("baseline: deferred flush: %w", err)
	}
	d.clk.ChargeFree(cycles.UnmapOther, d.model.IOTLBGlobalFlush)
	for _, q := range d.deferQ {
		if err := d.alloc.Free(q.iovaPFN); err != nil {
			return fmt.Errorf("baseline: deferred free: %w", err)
		}
	}
	d.deferQ = d.deferQ[:0]
	return nil
}

// FlushPending forces the deferred queue to drain (device teardown).
func (d *Driver) FlushPending() error {
	if len(d.deferQ) > 0 {
		return d.flushDeferred()
	}
	return nil
}

// PendingInvalidations returns the deferred-queue depth (tests).
func (d *Driver) PendingInvalidations() int { return len(d.deferQ) }
