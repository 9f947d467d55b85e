// Package iommu models the baseline (Intel VT-d style) IOMMU hardware: on
// each DMA it intercepts the IOVA, consults the IOTLB, walks the page-table
// hierarchy on a miss (Figure 5), enforces permissions, and returns the
// physical address. Device-side walk costs are charged to the DeviceSide
// component: per the paper's validated model (§3.3) they do not gate
// throughput, but they are visible to the §5.3 polling-mode experiment.
package iommu

import (
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/dma"
	"riommu/internal/iotlb"
	"riommu/internal/mem"
	"riommu/internal/pagetable"
	"riommu/internal/pci"
)

// IOMMU is the hardware translation unit shared by all attached devices.
type IOMMU struct {
	clk   *cycles.Clock
	model *cycles.Model

	hier *pagetable.Hierarchy
	tlb  *iotlb.IOTLB

	// PassThrough enables HWpt mode (§5.1): every IOVA translates to the
	// identical physical address without consulting the IOTLB or tables.
	PassThrough bool
}

// New creates an IOMMU over the given hierarchy with an IOTLB of the given
// capacity (0 means iotlb.DefaultCapacity).
func New(clk *cycles.Clock, model *cycles.Model, hier *pagetable.Hierarchy, tlbCapacity int) *IOMMU {
	return &IOMMU{
		clk:   clk,
		model: model,
		hier:  hier,
		tlb:   iotlb.New(tlbCapacity),
	}
}

// Clone returns an independent copy of the unit over mm: hierarchy (with
// its attached spaces) and IOTLB cloned, charges going to rb's clocks.
func (u *IOMMU) Clone(mm *mem.PhysMem, rb cycles.Rebind) *IOMMU {
	return &IOMMU{
		clk:         rb.Clock(u.clk),
		model:       rb.Model,
		hier:        u.hier.Clone(mm, rb),
		tlb:         u.tlb.Clone(),
		PassThrough: u.PassThrough,
	}
}

// TLB exposes the IOTLB for OS-driver invalidations and statistics.
func (u *IOMMU) TLB() *iotlb.IOTLB { return u.tlb }

// Hierarchy exposes the root/context table structure for device attachment.
func (u *IOMMU) Hierarchy() *pagetable.Hierarchy { return u.hier }

// Translate resolves one device access that must not cross a page boundary
// (the DMA engine splits larger accesses). It implements the hardware path
// of Figure 5: IOTLB lookup, walk on miss, permission check.
func (u *IOMMU) Translate(bdf pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error) {
	if size == 0 {
		return 0, fmt.Errorf("iommu: zero-size access")
	}
	if (iova&mem.PageMask)+uint64(size) > mem.PageSize {
		return 0, fmt.Errorf("iommu: access iova=%#x size=%d crosses a page boundary", iova, size)
	}
	if u.PassThrough {
		return mem.PA(iova), nil
	}
	key := iotlb.Key{BDF: bdf, IOVAPFN: iova >> mem.PageShift}
	if e, ok := u.tlb.Lookup(key); ok {
		if !e.Perm.Allows(dir) {
			return 0, &pagetable.Fault{Reason: pagetable.FaultPermission, IOVA: iova, Want: dir}
		}
		return e.Frame.PA() + mem.PA(iova&mem.PageMask), nil
	}
	// Miss: root/context lookup plus 4-level walk, charged to the device side.
	u.clk.Charge(cycles.DeviceSide, u.model.IOTLBMiss)
	sp, err := u.hier.Lookup(bdf)
	if err != nil {
		return 0, err
	}
	pa, perm, err := sp.Walk(iova, dir)
	if err != nil {
		return 0, err
	}
	u.tlb.Insert(key, iotlb.Entry{Frame: mem.PFNOf(pa), Perm: perm})
	return pa, nil
}

// TranslateBatch resolves N single-page chunks with one call: the native
// batched verb of the dma.BatchTranslator contract. Each chunk performs
// exactly the scalar Translate's work in order — same IOTLB
// lookups/insertions, same miss charges — without the per-chunk interface
// dispatch.
func (u *IOMMU) TranslateBatch(bdf pci.BDF, reqs []dma.Req, out []dma.Resp) int {
	for i := range reqs {
		pa, err := u.Translate(bdf, reqs[i].IOVA, reqs[i].Size, reqs[i].Dir)
		out[i] = dma.Resp{PA: pa, Err: err}
		if err != nil {
			return i
		}
	}
	return len(reqs)
}

// Identity is the Translator used when the IOMMU is disabled ("none" mode):
// DMAs execute with physical addresses, unmediated.
type Identity struct{}

// Translate returns the IOVA unchanged.
func (Identity) Translate(_ pci.BDF, iova uint64, _ uint32, _ pci.Dir) (mem.PA, error) {
	return mem.PA(iova), nil
}

// TranslateBatch returns every IOVA unchanged.
func (Identity) TranslateBatch(_ pci.BDF, reqs []dma.Req, out []dma.Resp) int {
	for i := range reqs {
		out[i] = dma.Resp{PA: mem.PA(reqs[i].IOVA)}
	}
	return len(reqs)
}
