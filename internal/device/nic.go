// Package device implements the simulated I/O devices of the evaluation:
//
//   - NIC: a ring-based network controller with two calibrated profiles —
//     mlx (ConnectX3-like: 40 Gbps, two target buffers per packet) and brcm
//     (BCM57810-like: 10 Gbps, one buffer per packet) — matching §5.1's
//     observation that the two drivers differ exactly this way.
//   - NVMe: a queue-pair PCIe SSD controller per the NVM Express model the
//     paper cites (§4): up to 64K queues of up to 64K commands, consumed in
//     order — the property that makes rIOMMU applicable to PCIe SSDs.
//   - SATA: an AHCI-style disk with a single 32-slot queue processed in
//     arbitrary order — the device class rIOMMU deliberately does not cover.
//
// Devices access memory exclusively through a dma.Engine, so every
// descriptor fetch and buffer transfer is translated (and can fault).
package device

import (
	"fmt"
	"slices"

	"riommu/internal/dma"
	"riommu/internal/mem"
	"riommu/internal/pci"
	"riommu/internal/ring"
)

// NICProfile captures the per-NIC characteristics the paper identifies as
// performance-relevant (§5.1): line rate, buffers (and hence IOVAs) per
// packet, and ring provisioning (mlx allocates ~12K IOVAs, brcm ~3K).
type NICProfile struct {
	Name             string
	LineRateGbps     float64
	BuffersPerPacket int // mlx: 2 (header + data); brcm: 1
	HeaderBytes      int // size of the header buffer when split
	RxEntries        uint32
	TxEntries        uint32

	// CostScale scales the per-operation driver/hardware cycle costs for
	// this setup (cycles.Model.Scaled): the brcm machine (Linux 3.11,
	// different chipset) showed roughly half the per-op costs of the mlx
	// machine, per the CPU ratios of Table 2.
	CostScale float64

	// BufferBytes is the target-buffer size the driver allocates (0 means
	// the driver default of 2 KiB, two buffers per page).
	BufferBytes uint32
}

// ProfileMLX models the Mellanox ConnectX3 40 Gbps setup.
var ProfileMLX = NICProfile{
	Name:             "mlx",
	LineRateGbps:     40,
	BuffersPerPacket: 2,
	HeaderBytes:      128,
	RxEntries:        8192, // the mlx driver keeps ~12K IOVAs live (§5.1)
	TxEntries:        4096,
	CostScale:        1.0,
}

// ProfileBRCM models the Broadcom BCM57810 10 GbE setup.
var ProfileBRCM = NICProfile{
	Name:             "brcm",
	LineRateGbps:     10,
	BuffersPerPacket: 1,
	HeaderBytes:      0,
	RxEntries:        1024, // ~3K IOVAs observed in total (§5.1)
	TxEntries:        2048,
	CostScale:        0.5,
}

// MaxBufferBytes bounds the length of a data descriptor. A descriptor names
// one driver buffer and drivers never allocate buffers larger than a page,
// so a longer length can only be a corrupted or hostile descriptor.
const MaxBufferBytes = mem.PageSize

// IRQLine is the device's interrupt pin-pair: the NIC raises Rx/Tx
// completion interrupts through it when work completes. A nil line means
// interrupts are not modeled (legacy polling configurations) and raising is
// a no-op, so wiring interrupts is strictly opt-in.
type IRQLine interface {
	RaiseRx()
	RaiseTx()
}

// NIC is the device-side model: it consumes Tx descriptors in ring order,
// fetching packet payloads by DMA, and deposits received packets into the
// posted Rx buffers in ring order.
type NIC struct {
	Profile NICProfile

	// IRQ, when non-nil, receives a completion raise per transmitted burst
	// and per delivered packet.
	IRQ IRQLine

	bdf pci.BDF
	eng *dma.Engine
	rx  *ring.Ring
	tx  *ring.Ring

	// Statistics.
	TxPackets, TxBytes uint64
	RxPackets, RxBytes uint64
	Faults             uint64

	// CaptureTx retains the payload of the most recently transmitted packet
	// in LastTx for end-to-end verification in tests.
	CaptureTx bool
	LastTx    []byte

	// txScratch is the reusable DMA target for Tx payload fetches, so the
	// per-packet path allocates nothing. Its contents never outlive one
	// descriptor's processing (CaptureTx copies out via append).
	txScratch []byte
}

// NewNIC binds a NIC model to its rings and DMA engine. The rings are the
// same objects the driver manages; the device reads them through DMA at
// their device-visible addresses.
func NewNIC(profile NICProfile, bdf pci.BDF, eng *dma.Engine, rx, tx *ring.Ring) *NIC {
	return &NIC{Profile: profile, bdf: bdf, eng: eng, rx: rx, tx: tx}
}

// Clone returns an independent copy of the NIC model in a cloned world,
// bound to that world's engine and rings. An interrupt line is the wiring
// of one world, so the copy has none.
func (n *NIC) Clone(eng *dma.Engine, rx, tx *ring.Ring) *NIC {
	c := *n
	c.IRQ = nil
	c.eng, c.rx, c.tx = eng, rx, tx
	c.LastTx = slices.Clone(n.LastTx)
	c.txScratch = nil
	return &c
}

// BDF returns the device's PCI identity.
func (n *NIC) BDF() pci.BDF { return n.bdf }

// readDescriptor fetches the descriptor at the ring head via DMA. A fault
// injector may flip a bit in the fetched words (a flaky device's descriptor
// parser), which typically surfaces later as an I/O page fault on the
// corrupted buffer address.
func (n *NIC) readDescriptor(r *ring.Ring, slot uint32) (ring.Descriptor, error) {
	addr := r.DeviceSlotAddr(slot)
	w0, err := n.eng.ReadU64(n.bdf, addr)
	if err != nil {
		return ring.Descriptor{}, err
	}
	w1, err := n.eng.ReadU64(n.bdf, addr+8)
	if err != nil {
		return ring.Descriptor{}, err
	}
	n.eng.Faults().FlipDescriptor(n.bdf, addr, &w0, &w1)
	return ring.DecodeWords(w0, w1), nil
}

// ResetDevice models a device-level reset: statistics that drive watchdog
// progress detection are preserved, but a hang injected by the fault engine
// is cleared. Drivers call it from their Recover path.
func (n *NIC) ResetDevice() { n.eng.Faults().ClearHang(n.bdf) }

// writeDescriptorStatus publishes a completed descriptor back via DMA.
func (n *NIC) writeDescriptorStatus(r *ring.Ring, slot uint32, d ring.Descriptor) error {
	w0, w1 := ring.EncodeWords(d)
	addr := r.DeviceSlotAddr(slot)
	if err := n.eng.WriteU64(n.bdf, addr, w0); err != nil {
		return err
	}
	return n.eng.WriteU64(n.bdf, addr+8, w1)
}

// ProcessTx consumes up to maxPackets transmit packets from the Tx ring
// (each packet spans Profile.BuffersPerPacket descriptors), fetching their
// payloads by DMA and marking the descriptors done. It returns the number
// of whole packets transmitted. A translation fault marks the descriptor
// with FlagError and stops processing — the OS would reinitialize the
// device on the corresponding I/O page fault (§4).
func (n *NIC) ProcessTx(maxPackets int) (int, error) {
	if n.eng.Faults().HangCheck(n.bdf) {
		return 0, nil // wedged: silently stops consuming work (watchdog territory)
	}
	sent := 0
	for sent < maxPackets && n.tx.Pending() > 0 {
		// Peek the head descriptor: an inline descriptor is a whole packet
		// by itself; otherwise a packet spans BuffersPerPacket descriptors.
		head, err := n.readDescriptor(n.tx, n.tx.Head())
		if err != nil {
			n.Faults++
			return sent, fmt.Errorf("device %s: tx descriptor fetch: %w", n.Profile.Name, err)
		}
		descs := n.Profile.BuffersPerPacket
		if head.Flags&ring.FlagInline != 0 {
			descs = 1
		}
		if int(n.tx.Pending()) < descs {
			break // partial packet posted; wait for the rest
		}
		var pkt []byte
		for b := 0; b < descs; b++ {
			slot := n.tx.Head()
			d, err := n.readDescriptor(n.tx, slot)
			if err != nil {
				n.Faults++
				return sent, fmt.Errorf("device %s: tx descriptor fetch: %w", n.Profile.Name, err)
			}
			if d.Flags&ring.FlagReady == 0 {
				return sent, fmt.Errorf("device %s: tx slot %d not ready", n.Profile.Name, slot)
			}
			if d.Flags&ring.FlagInline != 0 {
				// Payload bytes are packed into the Addr field; no DMA.
				if n.CaptureTx {
					for i := uint32(0); i < d.Len && i < 8; i++ {
						pkt = append(pkt, byte(d.Addr>>(8*i)))
					}
				}
			} else {
				if d.Len > MaxBufferBytes {
					// Refused before any DMA or allocation of that length.
					n.failTx(slot, d)
					return sent, fmt.Errorf("device %s: tx descriptor length %d exceeds %d", n.Profile.Name, d.Len, MaxBufferBytes)
				}
				if uint32(cap(n.txScratch)) < d.Len {
					n.txScratch = make([]byte, d.Len)
				}
				buf := n.txScratch[:d.Len]
				if err := n.eng.Read(n.bdf, d.Addr, buf); err != nil {
					n.failTx(slot, d)
					return sent, fmt.Errorf("device %s: tx buffer DMA: %w", n.Profile.Name, err)
				}
				if n.CaptureTx {
					pkt = append(pkt, buf...)
				}
			}
			d.Flags |= ring.FlagDone
			if err := n.writeDescriptorStatus(n.tx, slot, d); err != nil {
				n.Faults++
				return sent, err
			}
			if err := n.tx.AdvanceHead(); err != nil {
				return sent, err
			}
			n.TxBytes += uint64(d.Len)
		}
		if n.CaptureTx {
			n.LastTx = pkt
		}
		n.TxPackets++
		sent++
	}
	if sent > 0 && n.IRQ != nil {
		n.IRQ.RaiseTx()
	}
	return sent, nil
}

// failTx counts a descriptor fault on Tx slot, completes the slot with
// FlagError and moves past it.
func (n *NIC) failTx(slot uint32, d ring.Descriptor) {
	n.Faults++
	d.Flags |= ring.FlagDone | ring.FlagError
	_ = n.writeDescriptorStatus(n.tx, slot, d)
	_ = n.tx.AdvanceHead()
}

// DeliverPacket deposits a received packet into the next posted Rx
// buffer(s): the header into the first descriptor's buffer (when the
// profile splits packets) and the remainder into the second.
func (n *NIC) DeliverPacket(data []byte) error {
	if n.eng.Faults().HangCheck(n.bdf) {
		return fmt.Errorf("device %s: hung, dropping rx packet", n.Profile.Name)
	}
	if int(n.rx.Pending()) < n.Profile.BuffersPerPacket {
		return fmt.Errorf("device %s: rx ring underrun", n.Profile.Name)
	}
	pieces := n.splitPacket(data)
	for _, piece := range pieces {
		slot := n.rx.Head()
		d, err := n.readDescriptor(n.rx, slot)
		if err != nil {
			n.Faults++
			return fmt.Errorf("device %s: rx descriptor fetch: %w", n.Profile.Name, err)
		}
		if d.Flags&ring.FlagReady == 0 {
			return fmt.Errorf("device %s: rx slot %d not ready", n.Profile.Name, slot)
		}
		if len(piece) > int(d.Len) {
			return fmt.Errorf("device %s: rx buffer too small (%d > %d)", n.Profile.Name, len(piece), d.Len)
		}
		if len(piece) > 0 {
			if err := n.eng.Write(n.bdf, d.Addr, piece); err != nil {
				n.Faults++
				d.Flags |= ring.FlagDone | ring.FlagError
				_ = n.writeDescriptorStatus(n.rx, slot, d)
				_ = n.rx.AdvanceHead()
				return fmt.Errorf("device %s: rx buffer DMA: %w", n.Profile.Name, err)
			}
		}
		d.Len = uint32(len(piece))
		d.Flags |= ring.FlagDone
		if err := n.writeDescriptorStatus(n.rx, slot, d); err != nil {
			n.Faults++
			return err
		}
		if err := n.rx.AdvanceHead(); err != nil {
			return err
		}
		n.RxBytes += uint64(len(piece))
	}
	n.RxPackets++
	if n.IRQ != nil {
		n.IRQ.RaiseRx()
	}
	return nil
}

// splitPacket divides a packet across the profile's per-packet buffers.
func (n *NIC) splitPacket(data []byte) [][]byte {
	if n.Profile.BuffersPerPacket < 2 {
		return [][]byte{data}
	}
	h := n.Profile.HeaderBytes
	if h > len(data) {
		h = len(data)
	}
	return [][]byte{data[:h], data[h:]}
}
