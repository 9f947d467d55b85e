// Package audit implements a shadow translation oracle: an independent
// record of every live DMA mapping in the system, maintained purely from the
// OS drivers' map/unmap calls and consulted on every DMA the engine performs.
//
// The oracle is the isolation ground truth the protection hardware is
// measured against. The simulated IOMMUs (baseline and rIOMMU) decide
// whether a DMA *translates*; the oracle decides whether it *should have* —
// the access must fall inside a mapping that is still live, in a direction
// the mapping permits, within the buffer's byte bounds, and translate to the
// physical range the mapping was created with. Any translated access that
// fails one of those checks is an isolation violation: the defer modes'
// stale-IOTLB window (§3.2), the baseline's page-granularity overreach (§4),
// or a dropped invalidation erratum all surface here as structured events.
//
// The oracle is a pure observer: it never charges a virtual clock, never
// consumes randomness, and never alters an access. Enabling it cannot change
// any simulated metric, so audited campaign cells are byte-identical to
// unaudited ones in every legacy column — the determinism argument in
// DESIGN.md §9 rests on this.
package audit

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"riommu/internal/cycles"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// Violation reasons, from most to least specific.
const (
	// ReasonStale: the access hit no live mapping but matches a retired one —
	// the translation that served it was stale (the defer-mode window).
	ReasonStale = "stale-translation"
	// ReasonUnmapped: the access hit no live or recently retired mapping.
	ReasonUnmapped = "unmapped"
	// ReasonBounds: the access starts inside a live mapping but runs past the
	// buffer's byte extent (page-granular protection leaking past a sub-page
	// buffer, §4).
	ReasonBounds = "bounds"
	// ReasonDirection: the access direction is not permitted by the mapping.
	ReasonDirection = "direction"
	// ReasonPAMismatch: the access is inside a live mapping but the hardware
	// translated it to a different physical address than the mapping's (a
	// stale or corrupted translation structure).
	ReasonPAMismatch = "pa-mismatch"
)

// Reasons returns every violation reason in canonical report order.
func Reasons() []string {
	return []string{ReasonStale, ReasonUnmapped, ReasonBounds, ReasonDirection, ReasonPAMismatch}
}

// Mapping is one live DMA mapping as the oracle tracks it.
type Mapping struct {
	BDF      pci.BDF
	IOVA     uint64 // base IOVA as returned by the driver's Map
	PA       mem.PA
	Size     uint32
	Dir      pci.Dir
	MapCycle uint64
}

// Retired is a mapping that has been unmapped, kept as a tombstone so stale
// accesses can be distinguished from wild ones (and their window measured).
type Retired struct {
	Mapping
	UnmapCycle uint64
}

// Violation is one recorded isolation breach.
type Violation struct {
	Mode   string
	Reason string
	BDF    pci.BDF
	IOVA   uint64
	Size   uint32
	Dir    pci.Dir
	Cycle  uint64 // CPU cycle at which the offending DMA was verified
	// StaleCycles is, for ReasonStale, how long the mapping had been dead
	// when the access landed (the measured width of the vulnerability
	// window).
	StaleCycles uint64
}

func (v Violation) String() string {
	return fmt.Sprintf("%s %s %s iova=%#x size=%d dir=%s cycle=%d",
		v.Mode, v.Reason, v.BDF, v.IOVA, v.Size, v.Dir, v.Cycle)
}

// retiredCap bounds the per-device tombstone history. It comfortably covers
// a full deferred-invalidation batch (250) plus the in-flight ring churn, so
// every access inside the defer window classifies as stale rather than
// unmapped.
const retiredCap = 1024

// maxEvents bounds the recorded Violation events; totals keep counting past
// the cap.
const maxEvents = 64

// Oracle is the shadow tracker. One oracle audits one simulated system; it
// is not safe for concurrent use (each campaign cell owns its own world).
type Oracle struct {
	mode string
	clk  *cycles.Clock

	// passThrough disables judgment (accesses are counted, never flagged):
	// the none/hwpt/swpt modes map nothing, so every DMA is by construction
	// outside the oracle's live set without being a protection failure.
	passThrough bool

	// live indexes each device's mappings by IOVA page (iova>>PageShift):
	// a mapping is stored under every page it spans. Live mappings never
	// share an IOVA page (the baseline allocator hands out distinct PFNs, an
	// rIOMMU mapping owns a 2^30-byte rentry window) and DMA chunks never
	// cross a page, so one lookup finds the only mapping that can contain a
	// chunk.
	live    map[pci.BDF]map[uint64]Mapping
	retired map[pci.BDF][]Retired

	// Aggregate counters. Checked counts verified DMA chunks; Violations
	// counts every breach (Events holds only the first maxEvents).
	Checked    uint64
	Violations uint64
	ByReason   map[string]uint64
	Events     []Violation

	// Mirror-traffic counters (oracle health / test introspection).
	Maps, Unmaps      uint64
	UnmapMisses       uint64 // unmap of an IOVA the oracle never saw mapped
	LiveNow, LivePeak int
}

// NewOracle creates an oracle for a system in the named protection mode.
// clk is read (never charged) to stamp events with the offending cycle.
func NewOracle(mode string, clk *cycles.Clock) *Oracle {
	return &Oracle{
		mode:     mode,
		clk:      clk,
		live:     make(map[pci.BDF]map[uint64]Mapping),
		retired:  make(map[pci.BDF][]Retired),
		ByReason: make(map[string]uint64),
	}
}

// Clone returns an independent copy of the oracle, stamping events from
// clk: every live index, tombstone list, counter map and event list is
// copied, so verdicts in the copy never reach o.
func (o *Oracle) Clone(clk *cycles.Clock) *Oracle {
	c := *o
	c.clk = clk
	c.live = make(map[pci.BDF]map[uint64]Mapping, len(o.live))
	for bdf, dev := range o.live {
		c.live[bdf] = maps.Clone(dev)
	}
	c.retired = make(map[pci.BDF][]Retired, len(o.retired))
	for bdf, r := range o.retired {
		c.retired[bdf] = slices.Clone(r)
	}
	c.ByReason = maps.Clone(o.ByReason)
	c.Events = slices.Clone(o.Events)
	return &c
}

// Mode returns the protection-mode label events carry.
func (o *Oracle) Mode() string { return o.mode }

// SetPassThrough switches the oracle to counting-only mode (used for the
// unprotected none/hwpt/swpt configurations, which never map anything).
func (o *Oracle) SetPassThrough(v bool) { o.passThrough = v }

// pages returns the IOVA page range [first, last] a mapping spans. A
// zero-size mapping still owns its first page, so it can be unmapped.
func pages(iova uint64, size uint32) (first, last uint64) {
	return iova >> mem.PageShift, (iova + uint64(max(size, 1)) - 1) >> mem.PageShift
}

// OnMap mirrors a successful driver map. A new mapping first retires every
// live mapping on a page it covers (defensive: a best-effort device recovery
// can lose an unmap), so overlapping maps resolve deterministically.
func (o *Oracle) OnMap(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	o.Maps++
	dev := o.live[bdf]
	if dev == nil {
		dev = make(map[uint64]Mapping)
		o.live[bdf] = dev
	}
	m := Mapping{BDF: bdf, IOVA: iova, PA: pa, Size: size, Dir: dir, MapCycle: o.clk.Now()}
	first, last := pages(iova, size)
	for p := first; p <= last; p++ {
		if old, ok := dev[p]; ok {
			o.retire(dev, old)
		}
		dev[p] = m
	}
	o.LiveNow++
	if o.LiveNow > o.LivePeak {
		o.LivePeak = o.LiveNow
	}
}

// OnUnmap mirrors a successful driver unmap of the mapping based at iova.
func (o *Oracle) OnUnmap(bdf pci.BDF, iova uint64) {
	o.Unmaps++
	dev := o.live[bdf]
	m, ok := dev[iova>>mem.PageShift]
	if !ok || m.IOVA != iova {
		o.UnmapMisses++
		return
	}
	o.retire(dev, m)
}

// retire removes m from every page of the live index and retires it.
func (o *Oracle) retire(dev map[uint64]Mapping, m Mapping) {
	first, last := pages(m.IOVA, m.Size)
	for p := first; p <= last; p++ {
		delete(dev, p)
	}
	o.LiveNow--
	r := append(o.retired[m.BDF], Retired{Mapping: m, UnmapCycle: o.clk.Now()})
	// Compact lazily, at twice the cap, so a teardown that retires a whole
	// ring (8K mlx Rx buffers) pays a handful of copies rather than one
	// full-window copy per unmap. Readers only ever need the newest
	// retiredCap entries; the slack between cap and 2*cap just widens the
	// stale-classification window, which errs on the informative side.
	if len(r) >= 2*retiredCap {
		r = r[:copy(r, r[len(r)-retiredCap:])]
	}
	o.retired[m.BDF] = r
}

// VerifyDMA judges one translated DMA chunk: the engine calls it after the
// protection hardware accepted the access and resolved it to pa, and the
// oracle independently re-derives what should have happened. Chunks never
// cross a 4 KiB IOVA boundary (dma.Engine splits them), so the chunk's page
// names the only live mapping that can contain it.
func (o *Oracle) VerifyDMA(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	o.Checked++
	if o.passThrough {
		return
	}
	m, ok := o.live[bdf][iova>>mem.PageShift]
	if ok && iova >= m.IOVA && iova < m.IOVA+uint64(m.Size) {
		switch {
		case !m.Dir.Allows(dir):
			o.violate(Violation{Reason: ReasonDirection, BDF: bdf, IOVA: iova, Size: size, Dir: dir})
		case iova+uint64(size) > m.IOVA+uint64(m.Size):
			o.violate(Violation{Reason: ReasonBounds, BDF: bdf, IOVA: iova, Size: size, Dir: dir})
		case pa != m.PA+mem.PA(iova-m.IOVA):
			o.violate(Violation{Reason: ReasonPAMismatch, BDF: bdf, IOVA: iova, Size: size, Dir: dir})
		}
		return
	}
	// No live mapping contains the start: a stale translation if the oracle
	// recently retired one there, wild otherwise.
	if r := o.findRetired(bdf, iova); r != nil {
		o.violate(Violation{
			Reason: ReasonStale, BDF: bdf, IOVA: iova, Size: size, Dir: dir,
			StaleCycles: o.clk.Now() - r.UnmapCycle,
		})
		return
	}
	o.violate(Violation{Reason: ReasonUnmapped, BDF: bdf, IOVA: iova, Size: size, Dir: dir})
}

// findRetired returns the most recently retired mapping containing iova.
func (o *Oracle) findRetired(bdf pci.BDF, iova uint64) *Retired {
	r := o.retired[bdf]
	for i := len(r) - 1; i >= 0; i-- {
		if iova >= r[i].IOVA && iova < r[i].IOVA+uint64(r[i].Size) {
			return &r[i]
		}
	}
	return nil
}

func (o *Oracle) violate(v Violation) {
	v.Mode = o.mode
	v.Cycle = o.clk.Now()
	o.Violations++
	o.ByReason[v.Reason]++
	if len(o.Events) < maxEvents {
		o.Events = append(o.Events, v)
	}
}

// LiveSorted returns the device's live mappings ordered by base IOVA —
// the deterministic view chaos scenarios pick targets from.
func (o *Oracle) LiveSorted(bdf pci.BDF) []Mapping {
	dev := o.live[bdf]
	out := make([]Mapping, 0, len(dev))
	for p, m := range dev {
		if p == m.IOVA>>mem.PageShift {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IOVA < out[j].IOVA })
	return out
}

// RecentRetired returns up to n tombstones, newest first.
func (o *Oracle) RecentRetired(bdf pci.BDF, n int) []Retired {
	r := o.retired[bdf]
	if n > len(r) {
		n = len(r)
	}
	out := make([]Retired, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r[len(r)-1-i])
	}
	return out
}
