package iova

import (
	"fmt"
	"slices"

	"riommu/internal/cycles"
)

// DMA32PFN is the default allocation limit: the first PFN above the 32-bit
// address space (NIC drivers request 32-bit-reachable IOVAs, which is the
// case the cached32_node optimization — and its pathology — applies to).
const DMA32PFN = uint64(1) << (32 - 12)

// StartPFN is the lowest allocatable PFN (Linux reserves IOVA page 0).
const StartPFN = uint64(1)

// Allocator is the OS-side IOVA number allocator used by the baseline IOMMU
// driver: it hands out integer page ranges that are not currently associated
// with any other mapping (step 3 of Figure 4) and recycles them on unmap
// (step 4 of Figure 6).
type Allocator interface {
	// Alloc reserves `pages` contiguous IOVA pages below the limit and
	// returns the first PFN of the range.
	Alloc(pages uint64) (uint64, error)
	// Contains reports whether pfn belongs to a live allocation.
	Contains(pfn uint64) bool
	// Free releases the live range containing pfn.
	Free(pfn uint64) error
	// Live returns the number of live allocations.
	Live() int
	// Clone returns an independent copy charging rb's clocks.
	Clone(rb cycles.Rebind) Allocator
}

// LinuxAllocator reproduces the Linux 3.4 IOVA allocator: a red-black tree
// of allocated ranges with top-down first-fit allocation starting from the
// cached32 node. See alloc_iova()/__free_iova() in drivers/iommu/iova.c.
//
// The pathology the paper measures (strict-mode allocation costing ~3,986
// cycles) arises here exactly as in the kernel: whenever a free or an
// allocation near the top of the space resets the cached node high, the next
// allocation's gap search walks rb_prev over every live range between the
// cache and the first gap — linear in the number of live IOVAs.
type LinuxAllocator struct {
	clk   *cycles.Clock
	model *cycles.Model

	t        tree
	cached32 int32 // Linux iovad->cached32_node (nilNode when unset)
	limit    uint64
	spare    []int32 // nodes recycled by Free, reused by Alloc

	// Statistics for tests and the experiment harness.
	LastAllocVisits uint64
	MaxAllocVisits  uint64
	TotalVisits     uint64
	Allocs          uint64
}

// NewLinux returns a LinuxAllocator charging the given clock. limit is the
// top PFN boundary (exclusive upper bound is limit+1; allocations return
// ranges with pfnHi <= limit); pass DMA32PFN-1 for the kernel default.
func NewLinux(clk *cycles.Clock, model *cycles.Model, limit uint64) *LinuxAllocator {
	return &LinuxAllocator{clk: clk, model: model, limit: limit}
}

// Live returns the number of live allocations.
func (a *LinuxAllocator) Live() int { return a.t.size }

// Alloc implements __alloc_and_insert_iova_range: top-down search for a gap
// of `pages` below the limit, starting from the cached node.
func (a *LinuxAllocator) Alloc(pages uint64) (uint64, error) {
	if pages == 0 {
		return 0, fmt.Errorf("iova: zero-size allocation")
	}
	a.t.takeVisits()

	// __get_cached_rbnode: start below the cached node when present.
	limit := a.limit
	var curr int32
	if a.cached32 == nilNode {
		curr = a.t.last()
	} else {
		limit = a.t.n(a.cached32).pfnLo - 1
		curr = a.t.prev(a.cached32)
	}

	for curr != nilNode {
		c := a.t.n(curr)
		switch {
		case limit < c.pfnLo:
			// Entirely above us; move left.
		case limit <= c.pfnHi:
			// limit falls inside curr; adjust below it.
			limit = c.pfnLo - 1
		default:
			// Gap between curr.pfnHi and limit.
			if c.pfnHi+pages <= limit {
				goto found
			}
			limit = c.pfnLo - 1
		}
		curr = a.t.prev(curr)
	}
	// Reached the bottom: the gap is [StartPFN, limit].
	if limit < StartPFN || limit-StartPFN+1 < pages {
		a.chargeAlloc()
		return 0, fmt.Errorf("iova: address space exhausted (%d live)", a.t.size)
	}

found:
	var n int32
	if len(a.spare) > 0 {
		n = a.spare[len(a.spare)-1]
		a.spare = a.spare[:len(a.spare)-1]
		a.t.n(n).pfnLo, a.t.n(n).pfnHi = limit-pages+1, limit
	} else {
		n = a.t.newNode(limit-pages+1, limit)
	}
	a.t.insert(n)
	// __cached_rbnode_insert_update: cache the new node (the caller's limit
	// equals the dma-32bit limit for every allocation in this workload).
	a.cached32 = n
	a.chargeAlloc()
	return limit - pages + 1, nil
}

func (a *LinuxAllocator) chargeAlloc() {
	visits := a.t.takeVisits()
	a.LastAllocVisits = visits
	a.TotalVisits += visits
	a.Allocs++
	if visits > a.MaxAllocVisits {
		a.MaxAllocVisits = visits
	}
	a.clk.Charge(cycles.MapIOVAAlloc, a.model.RBInsertFixed+visits*a.model.RBNodeVisit)
}

// Contains reports whether pfn is inside a live range (without charging).
func (a *LinuxAllocator) Contains(pfn uint64) bool {
	defer a.t.takeVisits()
	return a.t.find(pfn) != nilNode
}

// Free implements find_iova + __free_iova: a logarithmic lookup charged to
// the unmap "iova find" component, then the cached-node update and rb_erase
// charged to "iova free".
func (a *LinuxAllocator) Free(pfn uint64) error {
	a.t.takeVisits()
	n := a.t.find(pfn)
	a.clk.Charge(cycles.UnmapIOVAFind, a.t.takeVisits()*a.model.RBFindVisit)
	if n == nilNode {
		return fmt.Errorf("iova: free of unallocated pfn %#x", pfn)
	}
	// __cached_rbnode_delete_update.
	if a.cached32 != nilNode && a.t.n(n).pfnLo >= a.t.n(a.cached32).pfnLo {
		succ := a.t.next(n)
		if succ != nilNode && a.t.n(succ).pfnLo < a.limit {
			a.cached32 = succ
		} else {
			a.cached32 = nilNode
		}
	}
	a.t.erase(n)
	a.spare = append(a.spare, n)
	a.clk.Charge(cycles.UnmapIOVAFree, a.model.RBEraseFixed+a.t.takeVisits()*a.model.RBNodeVisit)
	return nil
}

// Clone returns an independent copy of the allocator charging rb's clocks:
// the tree is one slice copy, and no slice is shared with a.
func (a *LinuxAllocator) Clone(rb cycles.Rebind) Allocator {
	c := *a
	c.clk, c.model = rb.Clock(a.clk), rb.Model
	c.t = a.t.clone()
	c.spare = slices.Clone(a.spare)
	return &c
}

var _ Allocator = (*LinuxAllocator)(nil)
