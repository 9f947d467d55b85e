package chaos

import (
	"riommu/internal/audit"
	"riommu/internal/intremap"
	"riommu/internal/pci"
)

// IntScenario names one interrupt-injection behavior — the MSI-side attacks
// interrupt remapping exists to stop (the hot-plug/Thunderbolt threat
// model: a malicious device can synthesize any MSI write it likes).
type IntScenario string

// The interrupt-injection scenarios.
const (
	// VectorStorm blasts remappable-format messages at IRTE indices the OS
	// never allocated — a wild-vector storm that unremapped MSIs would turn
	// into arbitrary interrupt injection.
	VectorStorm IntScenario = "vector-storm"
	// SpoofBDF issues messages that reference the victim's live IRTEs but
	// carry the hostile device's requester id — source-id verification is
	// the only thing standing between this and the victim's handler.
	SpoofBDF IntScenario = "spoof-bdf"
	// IRTEReplay replays the victim's own recently freed IRTE indices (the
	// ghost of a removed or reset device still asserting completions). In
	// the deferred-IEC modes a stale cache entry can still deliver these —
	// the interrupt analog of the stale-IOTLB window.
	IRTEReplay IntScenario = "irte-replay"
)

// IntScenarios returns every interrupt scenario in canonical order.
func IntScenarios() []IntScenario {
	return []IntScenario{VectorStorm, SpoofBDF, IRTEReplay}
}

// IntHostile is a hostile device injecting interrupt messages through the
// remapping unit, exactly as the hardware would see them. Outcome counting
// reuses the chaos Stats convention: a message the remapper refuses is
// contained; one it delivers lands (the interrupt oracle then judges
// whether landing was a violation). Target selection reads only the
// interrupt oracle's deterministic views, so cells stay pure functions of
// their seed.
type IntHostile struct {
	rem    *intremap.Remapper
	orc    *audit.IntOracle
	bdf    pci.BDF // hostile requester id
	victim pci.BDF // device whose vectors are attacked

	Stats Stats
}

// NewIntHostile builds an interrupt-injecting hostile device.
func NewIntHostile(rem *intremap.Remapper, orc *audit.IntOracle, bdf, victim pci.BDF) *IntHostile {
	return &IntHostile{rem: rem, orc: orc, bdf: bdf, victim: victim}
}

func (h *IntHostile) note(out intremap.Outcome) {
	h.Stats.Attempts++
	if out == intremap.Delivered {
		h.Stats.Landed++
	} else {
		h.Stats.Contained++
	}
}

// tableSpan is the index space the storm sprays; pass-through mode has no
// table, so a nominal span keeps the walk deterministic.
func (h *IntHostile) tableSpan() int {
	if t := h.rem.Table(); t != nil {
		return t.Size()
	}
	return 256
}

// Storm sprays n messages across the table's index space with a fixed
// stride, as the hostile requester. Indices that happen to hit someone's
// live IRTE are refused by source-id verification; the rest are wild.
func (h *IntHostile) Storm(n int) {
	span := h.tableSpan()
	for i := 0; i < n; i++ {
		idx := (i*37 + 5) % span
		h.note(h.rem.Deliver(h.bdf, idx, uint8(0x80+i%0x40), 0))
	}
}

// Spoof targets up to n of the victim's live IRTEs with the hostile
// requester id.
func (h *IntHostile) Spoof(n int) {
	for i, idx := range h.orc.LiveSortedFor(h.victim) {
		if i >= n {
			break
		}
		h.note(h.rem.Deliver(h.bdf, idx, 0, 0))
	}
}

// ReplayFreed re-asserts up to n of the victim's most recently freed IRTE
// indices, carrying the victim's own requester id (the ghost-completion
// case: source-id verification cannot help, only IEC invalidation can).
func (h *IntHostile) ReplayFreed(n int) {
	for _, idx := range h.orc.RecentFreedFor(h.victim, n) {
		h.note(h.rem.Deliver(h.victim, idx, 0, 0))
	}
}

// RunInt executes one interrupt scenario step of the given intensity.
func (h *IntHostile) RunInt(sc IntScenario, n int) {
	switch sc {
	case VectorStorm:
		h.Storm(n)
	case SpoofBDF:
		h.Spoof(n)
	case IRTEReplay:
		h.ReplayFreed(n)
	}
}
