package chaos

import (
	"errors"
	"fmt"

	"riommu/internal/dma"
	"riommu/internal/driver"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// TenantScenario names one hostile-tenant behavior: attacks launched not by
// a single compromised device against its own OS, but by an entire guest
// (kernel included) against the hypervisor's blast-radius guarantees.
type TenantScenario string

// The hostile-tenant scenarios.
const (
	// S2StaleReplay warms stage-2 TLB entries for pages the host then
	// reclaims and regrants to a victim, and replays DMAs through them —
	// the nested-translation version of the stale-IOTLB window.
	S2StaleReplay TenantScenario = "s2-stale-replay"
	// GPAOverreach maps and probes guest-physical addresses beyond the
	// tenant's granted space, hunting for host frames it does not own.
	GPAOverreach TenantScenario = "gpa-overreach"
	// BDFSpoof issues DMAs tagged with other tenants' device BDFs — the
	// escape the device directory's source validation must stop.
	BDFSpoof TenantScenario = "bdf-spoof"
	// S2InvFlood hammers the balloon hypercall to flood the shared stage-2
	// invalidation machinery; the host's quota must throttle it before
	// other tenants feel it.
	S2InvFlood TenantScenario = "s2-inv-flood"
)

// TenantScenarios returns every hostile-tenant scenario in canonical order.
func TenantScenarios() []TenantScenario {
	return []TenantScenario{S2StaleReplay, GPAOverreach, BDFSpoof, S2InvFlood}
}

// ErrAttackContained is returned by attack rounds whose every probe the
// translation path rejected — the supervisor sees the hostile tenant
// failing, which is what walks it into quarantine.
var ErrAttackContained = errors.New("chaos: all hostile-tenant probes contained")

// HostileTenant is a compromised guest: it controls a device of its own
// (ring 0 in its VM, so it can map any GPA it likes at stage 1) and drives
// attacks through the regular DMA engine, where the nested translator
// judges them. Contained probes return errors; landed probes reached
// memory and are judged by the tenant oracle.
type HostileTenant struct {
	eng  *dma.Engine
	prot driver.Protection // the attack device's stage-1 context
	bdf  pci.BDF           // the attack device

	Stats Stats
	buf   []byte

	// stale holds the stage-1 windows planted over to-be-reclaimed GPAs.
	stale []staleWindow
}

type staleWindow struct {
	iova uint64
	dir  pci.Dir
}

// NewHostileTenant builds a hostile guest model around its attack device.
func NewHostileTenant(eng *dma.Engine, prot driver.Protection, bdf pci.BDF) *HostileTenant {
	return &HostileTenant{eng: eng, prot: prot, bdf: bdf}
}

func (h *HostileTenant) scratch(n int) []byte {
	if cap(h.buf) < n {
		h.buf = make([]byte, n)
		for i := range h.buf {
			h.buf[i] = 0xA5
		}
	}
	return h.buf[:n]
}

// Record notes the outcome of an externally executed attack step (e.g. a
// balloon hypercall the campaign issues on the tenant's behalf).
func (h *HostileTenant) Record(err error) {
	h.Stats.Attempts++
	if err != nil {
		h.Stats.Contained++
	} else {
		h.Stats.Landed++
	}
}

// PlantStale maps a stage-1 window onto each of the given GPAs and returns
// nothing until Replay probes them. The guest kernel is the attacker here:
// it keeps these stage-1 mappings alive forever, so after the host
// reclaims the underlying pages only stage 2 stands between the device and
// the frames' next owner.
func (h *HostileTenant) PlantStale(gpas []uint64) error {
	for _, gpa := range gpas {
		iova, err := h.prot.Map(0, mem.PA(gpa), probeSize, pci.DirBidi)
		if err != nil {
			return fmt.Errorf("chaos: planting stale window at gpa %#x: %w", gpa, err)
		}
		h.stale = append(h.stale, staleWindow{iova: iova, dir: pci.DirBidi})
	}
	return nil
}

// Replay probes every planted window. Before the host reclaims the pages
// the probes land harmlessly in the tenant's own memory (and warm the
// stage-2 TLB); afterwards a correct host faults every one. Returns
// ErrAttackContained when all probes were contained.
func (h *HostileTenant) Replay() error {
	if len(h.stale) == 0 {
		return fmt.Errorf("chaos: no stale windows planted")
	}
	landed := 0
	for _, w := range h.stale {
		err := h.eng.Write(h.bdf, w.iova, h.scratch(probeSize))
		h.Record(err)
		if err == nil {
			landed++
		}
	}
	if landed == 0 {
		return ErrAttackContained
	}
	return nil
}

// Overreach maps a stage-1 window at a GPA the tenant was never granted
// (base + the probe counter, advancing each call so repeat rounds touch
// fresh pages) and probes it. Stage 1 happily maps it — the guest kernel
// is hostile — so containment is purely stage 2's job.
func (h *HostileTenant) Overreach(base uint64) error {
	gpa := base + (h.Stats.Attempts%64)<<mem.PageShift
	iova, err := h.prot.Map(0, mem.PA(gpa), probeSize, pci.DirBidi)
	if err != nil {
		// Stage 1 refused the mapping (e.g. full ring): count it
		// contained, but keep the pressure up next round.
		h.Record(err)
		return ErrAttackContained
	}
	probeErr := h.eng.Write(h.bdf, iova, h.scratch(probeSize))
	h.Record(probeErr)
	_ = h.prot.Unmap(0, iova, probeSize, true)
	if probeErr != nil {
		return ErrAttackContained
	}
	return nil
}

// Spoof issues DMAs tagged with each victim BDF. In protected stage-1
// modes the spoofed device's own IOMMU context rejects the access; in the
// unprotected mode only the hypervisor's device directory stands in the
// way. Returns ErrAttackContained when every spoof was blocked.
func (h *HostileTenant) Spoof(victims []pci.BDF) error {
	landed := 0
	for _, bdf := range victims {
		err := h.eng.Write(bdf, uint64(mem.PageSize), h.scratch(probeSize))
		h.Record(err)
		if err == nil {
			landed++
		}
	}
	if landed == 0 {
		return ErrAttackContained
	}
	return nil
}
