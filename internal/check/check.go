// Package check is the mode-equivalence property layer: every protection
// mode is supposed to change *how* DMA is protected and *what it costs*,
// never what data moves or which mappings the OS asks for. For a seeded
// workload the package captures, per mode:
//
//   - every Rx frame delivered upstream and every Tx payload that reached
//     the wire (byte-exact), and
//   - the mapping history at the driver.Protection boundary — the ordered
//     (op, ring, size, direction, end-of-burst) sequence the protection
//     layer was asked to establish; the same events the audit oracle
//     observes, minus the mode-specific IOVA/PA values.
//
// Two modes are equivalent iff both records match byte for byte. The audit
// oracle additionally runs in every protected mode and must report zero
// violations (no hostile device is present).
package check

import (
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/detrand"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/intremap"
	"riommu/internal/mem"
	"riommu/internal/pci"
	"riommu/internal/sim"
	"riommu/internal/tenant"
)

// MapEvent is one recorded protection-boundary operation.
type MapEvent struct {
	Op   byte // 'M' (Map) or 'U' (Unmap)
	Ring int
	Size uint32
	Dir  pci.Dir
	EOB  bool // Unmap only: end-of-burst flag
}

// recorder decorates a driver.Protection, appending every successful call
// to the trace. IOVAs and physical addresses are deliberately not recorded:
// they are mode-specific (rIOVAs encode ring/entry, baseline IOVAs come
// from the allocator), while the call sequence itself must not be.
type recorder struct {
	inner  driver.Protection
	events *[]MapEvent
}

func (r recorder) Map(ring int, pa mem.PA, size uint32, dir pci.Dir) (uint64, error) {
	iova, err := r.inner.Map(ring, pa, size, dir)
	if err == nil {
		*r.events = append(*r.events, MapEvent{Op: 'M', Ring: ring, Size: size, Dir: dir})
	}
	return iova, err
}

func (r recorder) Unmap(ring int, iova uint64, size uint32, endOfBurst bool) error {
	err := r.inner.Unmap(ring, iova, size, endOfBurst)
	if err == nil {
		// Dir stays zero: the Protection interface does not carry a
		// direction on unmap.
		*r.events = append(*r.events, MapEvent{Op: 'U', Ring: ring, Size: size, EOB: endOfBurst})
	}
	return err
}

// IntEvent is one delivered completion interrupt: which vector fired on
// which core. Delivery order, vectors, and target cores are mode-invariant —
// remapping changes how a message is validated and what it costs, never
// where a legitimate interrupt lands.
type IntEvent struct {
	Vector uint8
	Core   int
}

// Trace is everything a workload run produced that must be mode-invariant.
type Trace struct {
	TxFrames [][]byte
	RxFrames [][]byte
	Events   []MapEvent
	// IntLog is the ordered interrupt-delivery record (remappable format in
	// the protected modes, compatibility format in pass-through).
	IntLog []IntEvent
	// AuditViolations is the oracle's verdict (0 expected; always 0 in the
	// unprotected modes, where the oracle passes through).
	AuditViolations uint64
	// IntViolations is the interrupt oracle's verdict (0 expected).
	IntViolations uint64
	// Cycles is the final CPU clock ledger. It is NOT mode-invariant (cost is
	// exactly what modes change) but it must be invariant across scheduling
	// choices within one mode — in particular batch vs scalar translation,
	// which the BatchTranslator contract requires to charge identically.
	Cycles cycles.Snapshot
}

// Config seeds one equivalence workload.
type Config struct {
	Profile device.NICProfile
	Queues  int
	Rounds  int
	Seed    uint64
	// Tenants, when > 0, runs the workload as tenant 0 of a hypervisor with
	// nested two-stage translation spliced under the DMA engine (plus
	// Tenants-1 idle table-only peers sharing the stage-2 machinery). The
	// trace must be byte-identical to the single-stage run: stage 2 changes
	// where DMA lands in host memory and what it costs, never what data
	// moves or which mappings the guest asks for.
	Tenants int
	// ScalarDMA forces the DMA engine's scalar per-chunk translation loop
	// even when the mode's translator speaks TranslateBatch — the control arm
	// of the batch-vs-scalar equivalence property.
	ScalarDMA bool
}

var equivBDF = pci.NewBDF(0, 3, 0)

func payload(rng *detrand.Source, n int) []byte {
	b := make([]byte, n)
	rng.Fill(b)
	return b
}

// RunWorkload drives the seeded multi-queue workload in one mode and
// returns its trace: round-robin transmits (pumped one packet at a time so
// every wire payload is captured), periodic inbound frames with coalesced
// Rx reaps, and a full teardown so trailing unmaps are recorded too.
func RunWorkload(mode sim.Mode, cfg Config) (Trace, error) {
	var tr Trace
	sys, err := sim.NewSystemScaled(mode, 1<<13, cfg.Profile.CostScale)
	if err != nil {
		return tr, err
	}
	defer sys.Close()
	sys.EnableAudit()
	if cfg.ScalarDMA {
		sys.Eng.SetBatch(false)
	}

	if cfg.Tenants > 0 {
		host, err := tenant.NewHost(64 + 8*uint64(cfg.Tenants))
		if err != nil {
			return tr, err
		}
		defer host.Close()
		dom, err := host.AdoptSystem(sys)
		if err != nil {
			return tr, err
		}
		if err := host.Register(dom, equivBDF); err != nil {
			return tr, err
		}
		for i := 1; i < cfg.Tenants; i++ {
			if _, err := host.AdoptSpace(1 << 9); err != nil {
				return tr, err
			}
		}
	}

	prot, err := sys.ProtectionFor(equivBDF, driver.RIOMMURingSizesQ(cfg.Profile, cfg.Queues))
	if err != nil {
		return tr, err
	}
	mq, err := driver.NewMQNIC(sys.Mem, recorder{inner: prot, events: &tr.Events},
		sys.Eng, cfg.Profile, equivBDF, cfg.Queues)
	if err != nil {
		return tr, err
	}
	for q := 0; q < cfg.Queues; q++ {
		mq.NIC(q).CaptureTx = true
	}
	// Interrupt path: queue q's vectors target core q; the sink records the
	// delivery log the equivalence property compares across modes.
	iorc, err := sys.EnableIntAudit()
	if err != nil {
		return tr, err
	}
	sys.IntRemap.SetSink(func(d intremap.Delivery) {
		tr.IntLog = append(tr.IntLog, IntEvent{Vector: d.Vector, Core: d.Core})
	})
	if err := sys.WireMQNICInterrupts(mq, equivBDF, false); err != nil {
		return tr, err
	}

	rng := detrand.Source(cfg.Seed)
	for round := 0; round < cfg.Rounds; round++ {
		q := round % cfg.Queues
		n := 64 + int(rng.Uint64()%1200)
		if err := mq.Send(payload(&rng, n)); err != nil {
			return tr, fmt.Errorf("round %d send: %w", round, err)
		}
		if _, err := mq.Queues[q].PumpTx(1); err != nil {
			return tr, fmt.Errorf("round %d pump: %w", round, err)
		}
		tr.TxFrames = append(tr.TxFrames, append([]byte(nil), mq.NIC(q).LastTx...))
		if _, err := mq.Queues[q].ReapTx(); err != nil {
			return tr, fmt.Errorf("round %d reap: %w", round, err)
		}
		if round%3 == 2 {
			frame := payload(&rng, 60+int(rng.Uint64()%900))
			if err := mq.Deliver(q, frame); err != nil {
				return tr, fmt.Errorf("round %d deliver: %w", round, err)
			}
			frames, err := mq.ReapRxAll()
			if err != nil {
				return tr, fmt.Errorf("round %d rx reap: %w", round, err)
			}
			for _, f := range frames {
				tr.RxFrames = append(tr.RxFrames, append([]byte(nil), f...))
			}
		}
	}
	if err := mq.Teardown(); err != nil {
		return tr, fmt.Errorf("teardown: %w", err)
	}
	if sys.Auditor != nil {
		tr.AuditViolations = sys.Auditor.Violations
	}
	tr.IntViolations = iorc.Violations
	tr.Cycles = sys.CPU.Snapshot()
	return tr, nil
}
