// Package campaign runs deterministic fault-injection campaigns against the
// simulated systems: it sweeps fault rates across the safe protection modes,
// drives supervised NIC / NVMe / SATA workloads through the injection
// window, and reports how the recovery layer held up.
//
// The campaign is a flat cell grid (device x mode x rate, plus a fault-free
// anchor cell per NIC mode). Every cell runs in a simulation world of its
// own (single-queue NIC and chaos cells clone theirs from a per-mode
// template, see cloneNICWorld) and derives its fault-engine seed from the
// base seed and the cell's identity alone (parallel.CellSeed), never from
// which worker ran it — so the merged result is byte-identical for any
// worker count, and CI can diff rendered output across code changes.
package campaign

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"riommu/internal/audit"
	"riommu/internal/chaos"
	"riommu/internal/cycles"
	"riommu/internal/detrand"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/faults"
	"riommu/internal/intremap"
	"riommu/internal/parallel"
	"riommu/internal/pci"
	"riommu/internal/perfmodel"
	"riommu/internal/sim"
	"riommu/internal/stats"
)

var (
	nicBDF   = pci.NewBDF(0, 3, 0)
	nvmeBDF  = pci.NewBDF(0, 4, 0)
	sataBDF  = pci.NewBDF(0, 5, 0)
	churnBDF = pci.NewBDF(0, 6, 0)  // inv-flood's map/unmap churn device
	msiBDF   = pci.NewBDF(0, 66, 6) // hostile MSI source's requester id
)

// SafeModes are the modes the recovery story covers: the deferred modes
// trade protection for speed and the pass-through modes have nothing to
// degrade to, so campaigns stick to gap-free protection (§5.1).
var SafeModes = []sim.Mode{sim.Strict, sim.StrictPlus, sim.RIOMMUMinus, sim.RIOMMU}

// ChaosModes are the modes the hostile-device cells sweep. Unlike the
// recovery sweep, the chaos sweep deliberately includes the deferred modes:
// quantifying their stale-IOTLB window against the violation-free safe modes
// is the point of the audit.
var ChaosModes = []sim.Mode{sim.Strict, sim.StrictPlus, sim.Defer, sim.DeferPlus, sim.RIOMMUMinus, sim.RIOMMU}

// The hot-plug storm scenarios. Unlike the chaos scenarios (which live in
// internal/chaos and need only a hostile device), these orchestrate topology
// churn through the sim layer's lifecycle state machine, so the campaign owns
// their names.
const (
	// HotplugAttachStorm cycles attach → traffic → surprise-removal →
	// replug repeatedly, with completions latched at every yank.
	HotplugAttachStorm = "attach-storm"
	// HotplugDMAEarly has the device DMA before the OS ever attached it —
	// every access must fault in the protected modes.
	HotplugDMAEarly = "dma-before-attach"
	// HotplugSurprise is one mid-campaign surprise removal with mappings and
	// in-flight invalidations live, followed by quarantine and an operator
	// replug.
	HotplugSurprise = "surprise-remove"
)

// HotplugScenarios returns every hot-plug scenario in canonical order.
func HotplugScenarios() []string {
	return []string{HotplugAttachStorm, HotplugDMAEarly, HotplugSurprise}
}

// ParseModes resolves a comma-separated mode list against SafeModes.
func ParseModes(s string) ([]sim.Mode, error) {
	var out []sim.Mode
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, m := range SafeModes {
			if m.String() == name {
				out = append(out, m)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown or unsafe mode %q (want one of strict, strict+, riommu-, riommu)", name)
		}
	}
	return out, nil
}

// ParseCores parses a comma-separated list of scale-out widths ("" → none).
func ParseCores(s string) ([]int, error) { return parseInts(s, "cores", 2, 64) }

// ParseTenants parses a comma-separated list of tenant counts ("" → none).
func ParseTenants(s string) ([]int, error) { return parseInts(s, "tenants", 2, 512) }

// ParseChurn parses a comma-separated list of fleet connection counts for
// the traffic-engine churn axis ("" → none).
func ParseChurn(s string) ([]int, error) { return parseInts(s, "churn connections", 1, 10_000_000) }

// parseInts parses a comma-separated list of integers in [lo,hi] ("" → none).
func parseInts(s, what string, lo, hi int) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad %s value %q: %w", what, f, err)
		}
		if n < lo || n > hi {
			return nil, fmt.Errorf("%s %d out of [%d,%d]", what, n, lo, hi)
		}
		out = append(out, n)
	}
	return out, nil
}

// ParseRates parses a comma-separated list of per-opportunity fault rates.
func ParseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		if !(r >= 0 && r <= 1) { // written so that NaN fails too
			return nil, fmt.Errorf("rate %v out of [0,1]", r)
		}
		out = append(out, r)
	}
	return out, nil
}

// Options selects the campaign grid.
type Options struct {
	Seed   uint64
	Rates  []float64
	Modes  []sim.Mode
	Rounds int
	// Workers is the cell-level fan-out (see parallel.Workers); 1 runs the
	// legacy serial path.
	Workers int
	// Audit runs every cell with the shadow translation oracle attached
	// (audit.Oracle is a pure observer, so legacy metrics are unchanged).
	Audit bool
	// Chaos appends hostile-device cells: each scenario runs against every
	// ChaosModes mode. Chaos cells are always audited.
	Chaos []chaos.Scenario
	// Cores appends multi-queue scale-out cells: for each entry > 1, every
	// mode × rate runs against an MQNIC with that many queue pairs (one
	// supervised recovery domain for the whole port). Legacy single-queue
	// cells are untouched.
	Cores []int
	// IntChaos appends hostile-MSI cells: each interrupt scenario runs
	// against every presentation mode (sim.AllModes) with the interrupt
	// oracle attached.
	IntChaos []chaos.IntScenario
	// Hotplug appends topology-churn cells: each hot-plug scenario runs
	// against every presentation mode, driving the lifecycle state machine
	// under audit.
	Hotplug []string
	// Tenants appends multi-tenant cells: for each entry ≥ 2, every hostile-
	// tenant scenario in TenantChaos runs against every presentation mode
	// with that many guests sharing one hypervisor (tenant 0 hostile, the
	// rest victims). Tenant cells are always audited at both stages.
	Tenants []int
	// TenantChaos selects the hostile-tenant scenarios the Tenants axis
	// sweeps (defaults to all when Tenants is set and this is empty).
	TenantChaos []chaos.TenantScenario
	// Churn appends fleet-traffic cells: for each target connection count,
	// every mode runs the internal/traffic engine (connection churn,
	// heavy-tailed mixes, mixed kernel/bypass paths) under the shadow
	// oracle. Churn cells are always audited.
	Churn []int

	// ShardIndex/ShardCount split the grid across cooperating processes:
	// with ShardCount = K, this process computes only the cells whose grid
	// index i satisfies i % K == ShardIndex (cells already present in the
	// checkpoint are restored regardless of shard). ShardCount <= 1 runs the
	// whole grid. Sharded runs require a Checkpoint, since a shard's results
	// would otherwise be lost. Like Workers, the shard split never affects
	// cell content — only which process computes which cell.
	ShardIndex, ShardCount int
	// Checkpoint names the versioned JSON checkpoint file: completed cells
	// are flushed to it as they finish (atomic temp-file rename per cell),
	// and cells already recorded there are restored instead of re-run.
	Checkpoint string
	// Merge lists additional checkpoint files to restore cells from
	// read-only — the merge step after K shards ran into K separate files.
	Merge []string
}

// Key identifies one campaign cell.
type Key struct {
	Device string // "nic", "nvme" or "sata"
	Mode   sim.Mode
	Rate   float64
	// Clean marks the fault-free NIC anchor cell that the throughput
	// degradation column is measured against.
	Clean bool
	// Scenario marks a hostile-device chaos cell (empty otherwise).
	Scenario string
	// IntScenario marks a hostile-MSI interrupt chaos cell.
	IntScenario string
	// Hotplug marks a topology-churn cell.
	Hotplug string
	// Cores marks a multi-queue scale-out cell (0 for the legacy
	// single-queue cells, so their identities — and hence per-cell seeds —
	// are unchanged).
	Cores int
	// Tenants marks a multi-tenant two-stage cell (0 for every
	// single-tenant cell, so legacy identities and seeds are unchanged);
	// TenantScenario names its hostile-tenant behavior.
	Tenants        int
	TenantScenario string
	// Churn marks a fleet-traffic connection-churn cell (0 for every
	// pre-existing cell, so legacy identities and seeds are unchanged);
	// the value is the modeled concurrent-connection count.
	Churn int
}

// String is the cell's stable identity; per-cell seeds derive from it.
func (k Key) String() string {
	if k.Churn > 0 {
		return fmt.Sprintf("%s/%s/churn=%d", k.Device, k.Mode, k.Churn)
	}
	if k.Tenants > 0 {
		return fmt.Sprintf("%s/%s/tenants=%d/tchaos=%s", k.Device, k.Mode, k.Tenants, k.TenantScenario)
	}
	if k.Cores > 1 {
		return fmt.Sprintf("%s/%s/cores=%d/r=%g", k.Device, k.Mode, k.Cores, k.Rate)
	}
	if k.Scenario != "" {
		return fmt.Sprintf("%s/%s/chaos=%s", k.Device, k.Mode, k.Scenario)
	}
	if k.IntScenario != "" {
		return fmt.Sprintf("%s/%s/intchaos=%s", k.Device, k.Mode, k.IntScenario)
	}
	if k.Hotplug != "" {
		return fmt.Sprintf("%s/%s/hotplug=%s", k.Device, k.Mode, k.Hotplug)
	}
	if k.Clean {
		return k.Device + "/" + k.Mode.String() + "/clean"
	}
	return fmt.Sprintf("%s/%s/r=%g", k.Device, k.Mode, k.Rate)
}

// CellMetrics is what one campaign cell measured.
type CellMetrics struct {
	// Clock is the cell's final CPU clock snapshot — the complete
	// per-component cycle ledger, captured with cycles.Clock.Snapshot when
	// the cell finishes and carried through checkpoints so a restored cell
	// is indistinguishable from a freshly-run one.
	Clock cycles.Snapshot

	Injected       uint64
	Recovery       driver.RecoveryStats
	RecoveryCycles uint64 // CPU cycles charged to recovery work
	CyclesPerOp    float64
	Gbps           float64 // NIC cells only
	// ByClass counts injected faults per fault class (NIC cells only).
	ByClass map[string]uint64

	// Audit results (cells run with the oracle attached).
	Audited      bool
	Checked      uint64 // DMA chunks verified
	Violations   uint64
	ByReason     map[string]uint64
	ViolPerMPkts float64 // violations per million packets (NIC cells)

	// Chaos cells only: hostile-device outcomes and the recovery SLO.
	Chaos          chaos.Stats
	Outages        uint64
	DowntimeCycles uint64
	MTTRCycles     float64
	Availability   float64
	BreakerTrips   uint64
	Readmissions   uint64

	// Interrupt-remapping results (intchaos and hotplug cells).
	IntDelivered  uint64
	IntBlocked    uint64
	IntViolations uint64
	IntByReason   map[string]uint64

	// Hot-plug cells only: lifecycle churn and ghost behavior.
	Attaches        uint64
	Removals        uint64
	Quarantines     uint64
	GhostDeliveries uint64 // interrupts delivered while the slot was removed

	// Churn cells only: fleet-traffic outcomes from internal/traffic.
	DataPackets   uint64
	Opens, Closes uint64 // flow churn (steering-buffer map/unmap storms)
	BypassPackets uint64
	AppDigest     uint64 // application byte-stream digest (path-invariant)
	MapDigest     uint64 // protection-boundary mapping-history digest

	// Tenant cells only: the hypervisor-level truth. TenantChecked /
	// TenantViolations / CrossTenant come from the tenant oracle (stage-2
	// accesses verified against the host's frame-ownership ledger);
	// CrossTenant ≠ 0 means a DMA reached another tenant's frame — the one
	// number the whole design exists to keep at zero.
	TenantChecked    uint64
	TenantViolations uint64
	CrossTenant      uint64
	TenantByReason   map[string]uint64
	// Stage-2 path counters summed over every domain, plus the cycles the
	// host's stage2 clock component accumulated.
	S2Hits, S2Misses uint64
	S2Faults         uint64
	S2Cycles         uint64
	SpoofBlocked     uint64 // DMAs refused by the device directory / stage 1
	Ballooned        uint64 // balloon pages the host actually remapped
	Throttled        uint64 // balloon hypercalls bounced by the quota
	// TenantQuarantines counts tenant-wide guard trips; the availability
	// pair is the blast-radius verdict: the hostile tenant pays with
	// downtime, every victim must stay at exactly 1.0.
	TenantQuarantines   uint64
	HostileAvailability float64
	VictimAvailability  float64
}

// Result pairs the grid with its measurements, cell i of Keys in Cells[i].
// Completed[i] is false for cells that never produced metrics (errored or
// skipped by an interrupt); a nil Completed means every cell finished.
type Result struct {
	Opts      Options
	Keys      []Key
	Cells     []CellMetrics
	Completed []bool
}

// done reports whether cell i produced metrics.
func (r Result) done(i int) bool {
	return r.Completed == nil || r.Completed[i]
}

// Complete reports whether every grid cell has metrics — true for an
// uninterrupted unsharded run, and for a sharded/resumed run once the
// checkpoint covers the whole grid.
func (r Result) Complete() bool {
	for i := range r.Keys {
		if !r.done(i) {
			return false
		}
	}
	return true
}

// Grid enumerates the campaign cells in canonical order: per NIC mode a
// clean anchor then the rate sweep, then the block devices' mode x rate
// sweeps. Output order is always this order, independent of scheduling.
func (o Options) Grid() []Key {
	var keys []Key
	for _, m := range o.Modes {
		keys = append(keys, Key{Device: "nic", Mode: m, Clean: true})
		for _, r := range o.Rates {
			keys = append(keys, Key{Device: "nic", Mode: m, Rate: r})
		}
	}
	for _, dev := range []string{"nvme", "sata"} {
		for _, m := range o.Modes {
			for _, r := range o.Rates {
				keys = append(keys, Key{Device: dev, Mode: m, Rate: r})
			}
		}
	}
	for _, cores := range o.Cores {
		if cores <= 1 {
			continue
		}
		for _, m := range o.Modes {
			for _, r := range o.Rates {
				keys = append(keys, Key{Device: "nic", Mode: m, Rate: r, Cores: cores})
			}
		}
	}
	for _, sc := range o.Chaos {
		for _, m := range ChaosModes {
			keys = append(keys, Key{Device: "nic", Mode: m, Scenario: string(sc)})
		}
	}
	// The interrupt and hot-plug sweeps cover all seven presentation modes:
	// the unprotected modes are the "what an attack costs without remapping"
	// anchors, the deferred modes quantify the IEC stale window.
	for _, sc := range o.IntChaos {
		for _, m := range sim.AllModes() {
			keys = append(keys, Key{Device: "nic", Mode: m, IntScenario: string(sc)})
		}
	}
	for _, sc := range o.Hotplug {
		for _, m := range sim.AllModes() {
			keys = append(keys, Key{Device: "nic", Mode: m, Hotplug: sc})
		}
	}
	// The multi-tenant sweep is appended last so every pre-existing cell
	// keeps its grid position: turning tenancy on is a pure insertion.
	tchaos := o.TenantChaos
	if len(o.Tenants) > 0 && len(tchaos) == 0 {
		tchaos = chaos.TenantScenarios()
	}
	for _, n := range o.Tenants {
		if n < 2 {
			continue
		}
		for _, sc := range tchaos {
			for _, m := range sim.AllModes() {
				keys = append(keys, Key{Device: "nic", Mode: m, Tenants: n, TenantScenario: string(sc)})
			}
		}
	}
	// The connection-churn sweep is likewise appended last (after tenants)
	// so every pre-existing cell keeps its grid position: turning the churn
	// axis on is a pure insertion.
	for _, n := range o.Churn {
		if n < 1 {
			continue
		}
		for _, m := range o.Modes {
			keys = append(keys, Key{Device: "nic", Mode: m, Churn: n})
		}
	}
	return keys
}

// Run executes the whole grid, fanning cells across opts.Workers workers.
// On interrupt (parallel.Interrupt) it returns the partial Result — cells
// that never ran have Completed[i] == false — together with the
// lowest-index cell error, which is parallel.ErrInterrupted unless an
// earlier cell failed outright.
func Run(opts Options) (Result, error) {
	keys := opts.Grid()
	cells := make([]CellMetrics, len(keys))
	completed := make([]bool, len(keys))
	res := Result{Opts: opts, Keys: keys, Cells: cells, Completed: completed}

	if opts.ShardCount > 1 {
		if opts.ShardIndex < 0 || opts.ShardIndex >= opts.ShardCount {
			return res, fmt.Errorf("shard index %d out of range [0,%d)", opts.ShardIndex, opts.ShardCount)
		}
		if opts.Checkpoint == "" {
			return res, fmt.Errorf("sharded runs need -checkpoint: a shard's cells would otherwise be lost")
		}
	}

	// Restore completed cells: read-only merge sources first, then the
	// primary checkpoint (which is also where new cells are flushed).
	var ckw *checkpointer
	for _, path := range opts.Merge {
		ck, err := LoadCheckpoint(path, opts)
		if err != nil {
			return res, err
		}
		if ck == nil {
			return res, fmt.Errorf("merge checkpoint %s: no such file", path)
		}
		ck.restore(keys, cells, completed)
	}
	if opts.Checkpoint != "" {
		ck, err := LoadCheckpoint(opts.Checkpoint, opts)
		if err != nil {
			return res, err
		}
		if ck != nil {
			ck.restore(keys, cells, completed)
		}
		ckw = newCheckpointer(opts.Checkpoint, opts, ck)
		// Fold merged cells into the primary so the merge target ends up
		// holding the whole grid.
		for i, k := range keys {
			if completed[i] {
				if _, ok := ckw.ck.Cells[k.String()]; !ok {
					if err := ckw.record(k.String(), cells[i]); err != nil {
						return res, err
					}
				}
			}
		}
	}

	err := parallel.Run(opts.Workers, len(keys), func(i int) error {
		if completed[i] {
			return nil // restored from a checkpoint
		}
		if opts.ShardCount > 1 && i%opts.ShardCount != opts.ShardIndex {
			return nil // another shard's cell
		}
		k := keys[i]
		seed := parallel.CellSeed(opts.Seed, k.String())
		rate := k.Rate
		if k.Clean {
			rate = 0
		}
		var (
			c   CellMetrics
			err error
		)
		switch {
		case k.Churn > 0:
			c, err = churnCell(k.Mode, seed, opts.Rounds, k.Churn)
		case k.Tenants > 0:
			c, err = tenantCell(k.Mode, chaos.TenantScenario(k.TenantScenario), seed, opts.Rounds, k.Tenants)
		case k.Scenario != "":
			c, err = chaosCell(k.Mode, chaos.Scenario(k.Scenario), seed, opts.Rounds)
		case k.IntScenario != "":
			c, err = intchaosCell(k.Mode, chaos.IntScenario(k.IntScenario), seed, opts.Rounds)
		case k.Hotplug != "":
			c, err = hotplugCell(k.Mode, k.Hotplug, seed, opts.Rounds)
		case k.Cores > 1:
			c, err = mqCell(k.Mode, seed, rate, opts.Rounds, k.Cores, opts.Audit)
		case k.Device == "nic":
			c, err = nicCell(k.Mode, seed, rate, opts.Rounds, opts.Audit)
		default:
			c, err = blockCell(k.Device, k.Mode, seed, rate, opts.Rounds, opts.Audit)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		cells[i] = c
		completed[i] = true
		if ckw != nil {
			if err := ckw.record(k.String(), c); err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
		}
		return nil
	})
	return res, err
}

// recordAudit copies the oracle's verdicts into the cell (every reason key
// is present so report columns are stable).
func recordAudit(c *CellMetrics, orc *audit.Oracle, pkts uint64) {
	if orc == nil {
		return
	}
	c.Audited = true
	c.Checked = orc.Checked
	c.Violations = orc.Violations
	c.ByReason = make(map[string]uint64, len(audit.Reasons()))
	for _, r := range audit.Reasons() {
		c.ByReason[r] = orc.ByReason[r]
	}
	if pkts > 0 {
		c.ViolPerMPkts = float64(orc.Violations) * 1e6 / float64(pkts)
	}
}

// newWorld builds one cell's simulated system with a uniform fault engine
// at rate and, when audited, the shadow translation oracle.
func newWorld(mode sim.Mode, pages, seed uint64, rate float64, audited bool) (*sim.System, *faults.Engine, error) {
	sys, err := sim.NewSystem(mode, pages)
	if err != nil {
		return nil, nil, err
	}
	f := sys.EnableFaults(faults.UniformConfig(seed, rate))
	if audited {
		sys.EnableAudit()
	}
	return sys, f, nil
}

// newIntWorld builds an interrupt cell's system: injection quiet, the
// shadow translation oracle and the interrupt oracle both attached.
func newIntWorld(mode sim.Mode, seed uint64) (*sim.System, *faults.Engine, *audit.IntOracle, error) {
	sys, f, err := newWorld(mode, 1<<15, seed, 0, true)
	if err != nil {
		return nil, nil, nil, err
	}
	iorc, err := sys.EnableIntAudit()
	if err != nil {
		sys.Close()
		return nil, nil, nil, err
	}
	return sys, f, iorc, nil
}

// nicPayload is the 1 KiB frame every NIC workload sends and delivers.
func nicPayload() []byte {
	p := make([]byte, 1024)
	for i := range p {
		p[i] = byte(i)
	}
	return p
}

// soak runs rounds supervised rounds of op. Failed rounds are the
// campaign's subject, not an error: the supervisor counts them and the
// watchdog clears any wedge. Only a failed watchdog recovery ends the cell.
func soak(sup *driver.Supervisor, rounds int, op func() error) error {
	for round := 0; round < rounds; round++ {
		_ = sup.Do(op)
		if _, err := sup.Watch(); err != nil {
			return fmt.Errorf("watchdog recovery failed: %w", err)
		}
	}
	return nil
}

// nicRound is one round of the single-queue NIC workload: send a frame,
// pump and reap the transmit path, then deliver and reap one frame of
// return traffic. midTx, when set, runs between pump and reap, while the
// transmit buffer is still mapped.
func nicRound(drv *driver.NICDriver, payload []byte, midTx func()) error {
	if err := drv.Send(payload); err != nil {
		return err
	}
	if _, err := drv.PumpTx(2); err != nil {
		return err
	}
	if midTx != nil {
		midTx()
	}
	if _, err := drv.ReapTx(); err != nil {
		return err
	}
	if err := drv.Deliver(payload); err != nil {
		return err
	}
	_, err := drv.ReapRx()
	return err
}

// mqTraffic is one round of bidirectional traffic on a multi-queue NIC: one
// frame sent per queue, every transmit path drained, one frame delivered
// per queue. The reap paths fire any latched completion interrupts.
func mqTraffic(mq *driver.MQNIC, payload []byte) error {
	for q := 0; q < len(mq.Queues); q++ {
		if err := mq.Send(payload); err != nil {
			return err
		}
	}
	if _, err := mq.PumpAndReapAll(); err != nil {
		return err
	}
	for q := 0; q < len(mq.Queues); q++ {
		if err := mq.Deliver(q, payload); err != nil {
			return err
		}
	}
	_, err := mq.ReapRxAll()
	return err
}

// mqPackets sums the packets every queue of mq moved.
func mqPackets(mq *driver.MQNIC) uint64 {
	var pkts uint64
	for q := range mq.Queues {
		nic := mq.NIC(q)
		pkts += nic.TxPackets + nic.RxPackets
	}
	return pkts
}

// finish reads what every supervised cell reports once its rounds are
// done: injection and recovery totals, cycles per operation over ops, the
// shadow oracle's verdicts, and the final clock ledger.
func finish(sys *sim.System, f *faults.Engine, rec driver.RecoveryStats, ops uint64) CellMetrics {
	c := CellMetrics{
		Injected:       f.TotalInjected(),
		Recovery:       rec,
		RecoveryCycles: sys.CPU.Total(cycles.Recovery),
	}
	if ops > 0 {
		c.CyclesPerOp = float64(sys.CPU.Now()) / float64(ops)
	}
	recordAudit(&c, sys.Auditor, ops)
	c.Clock = sys.CPU.Snapshot()
	return c
}

// finishNIC is finish for a NIC workload that moved pkts packets: it adds
// the modeled line-rate throughput and, when byClass is set, the injected
// fault count of every class.
func finishNIC(sys *sim.System, f *faults.Engine, sup *driver.Supervisor, pkts uint64, byClass bool) CellMetrics {
	c := finish(sys, f, sup.Stats, pkts)
	if pkts > 0 {
		c.Gbps = perfmodel.Gbps(sys.Model, c.CyclesPerOp, device.ProfileBRCM.LineRateGbps)
	}
	if byClass {
		c.ByClass = map[string]uint64{}
		for _, cl := range faults.Classes() {
			c.ByClass[cl.String()] = f.Count(cl)
		}
	}
	return c
}

// recordSLO fills the cell's four recovery-SLO columns from an outage
// ledger read at virtual time now.
func recordSLO(c *CellMetrics, slo driver.SLOStats, now uint64) {
	c.Outages = slo.Outages
	c.DowntimeCycles = slo.DowntimeCycles
	c.MTTRCycles = slo.MTTRCycles()
	c.Availability = slo.Availability(now)
}

// nicWorld is a single-queue NIC cell's world as sim.System.AttachNIC
// leaves it, with the cell's fault engine installed.
type nicWorld struct {
	sys *sim.System
	f   *faults.Engine
	drv *driver.NICDriver
	nic *device.NIC
}

// templateKey names one NIC template: cells differ from each other only in
// their mode, whether they are audited, and what runs after the attach.
type templateKey struct {
	mode    sim.Mode
	audited bool
}

// templateEntry builds its template once, however many workers ask.
type templateEntry struct {
	once sync.Once
	t    *sim.NICTemplate
	err  error
}

// nicTemplates is the process-wide template cache. A template is read-only
// once built, so every worker of every Run clones the same one.
var nicTemplates sync.Map // templateKey -> *templateEntry

// cloneNICWorld returns a NIC cell's world: a clone of the (mode, audited)
// template with a uniform fault engine at rate installed. It equals the
// world a fresh sim.NewSystem + EnableFaults + EnableAudit + AttachNIC
// would build, because the attach draws no fault opportunities (the
// template's guard checks this).
func cloneNICWorld(mode sim.Mode, seed uint64, rate float64, audited bool) (nicWorld, error) {
	key := templateKey{mode, audited}
	v, ok := nicTemplates.Load(key)
	if !ok {
		v, _ = nicTemplates.LoadOrStore(key, &templateEntry{})
	}
	e := v.(*templateEntry)
	e.once.Do(func() {
		e.t, e.err = sim.NewNICTemplate(mode, 1<<15, device.ProfileBRCM, nicBDF, audited)
	})
	if e.err != nil {
		return nicWorld{}, e.err
	}
	sys, drv, nic, err := e.t.Clone()
	if err != nil {
		return nicWorld{}, err
	}
	f := sys.EnableFaults(faults.UniformConfig(seed, rate))
	return nicWorld{sys: sys, f: f, drv: drv, nic: nic}, nil
}

// nicCell soaks a supervised NIC under uniform injection at the given rate.
func nicCell(mode sim.Mode, seed uint64, rate float64, rounds int, audited bool) (CellMetrics, error) {
	w, err := cloneNICWorld(mode, seed, rate, audited)
	if err != nil {
		return CellMetrics{}, err
	}
	return w.soakNIC(rounds)
}

// soakNIC runs the NIC cell's workload in w and closes w.
func (w nicWorld) soakNIC(rounds int) (CellMetrics, error) {
	defer w.sys.Close()
	sup := w.sys.Supervise(nicBDF, w.drv)
	payload := nicPayload()
	if err := soak(sup, rounds, func() error { return nicRound(w.drv, payload, nil) }); err != nil {
		return CellMetrics{}, err
	}
	return finishNIC(w.sys, w.f, sup, w.nic.TxPackets+w.nic.RxPackets, true), nil
}

// mqCell soaks a supervised multi-queue NIC: `cores` queue pairs sharing
// one device identity, protection domain, and recovery domain (the port
// resets as a unit).
func mqCell(mode sim.Mode, seed uint64, rate float64, rounds, cores int, audited bool) (CellMetrics, error) {
	sys, f, err := newWorld(mode, 1<<15, seed, rate, audited)
	if err != nil {
		return CellMetrics{}, err
	}
	defer sys.Close()
	mq, err := sys.AttachMQNIC(device.ProfileBRCM, nicBDF, cores)
	if err != nil {
		return CellMetrics{}, err
	}
	sup := sys.Supervise(nicBDF, mq)
	payload := nicPayload()
	if err := soak(sup, rounds, func() error { return mqTraffic(mq, payload) }); err != nil {
		return CellMetrics{}, err
	}
	return finishNIC(sys, f, sup, mqPackets(mq), true), nil
}

// blockCell runs the same sweep against a block-device driver (NVMe or
// AHCI/SATA): a supervised write/complete loop under injection.
func blockCell(dev string, mode sim.Mode, seed uint64, rate float64, rounds int, audited bool) (CellMetrics, error) {
	sys, f, err := newWorld(mode, 1<<14, seed, rate, audited)
	if err != nil {
		return CellMetrics{}, err
	}
	defer sys.Close()
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i * 3)
	}

	var (
		target driver.Recoverable
		op     func() error
		bdf    pci.BDF
	)
	switch dev {
	case "nvme":
		bdf = nvmeBDF
		prot, err := sys.ProtectionFor(bdf, []uint32{4, 64, 64})
		if err != nil {
			return CellMetrics{}, err
		}
		d, err := driver.NewNVMeDriver(sys.Mem, prot, sys.Eng, bdf, 4096, 128, 8)
		if err != nil {
			return CellMetrics{}, err
		}
		lba := uint64(0)
		target = d
		op = func() error {
			if _, err := d.Write(lba%64, payload); err != nil {
				return err
			}
			lba++
			_, err := d.Poll(8)
			return err
		}
	case "sata":
		bdf = sataBDF
		prot, err := sys.ProtectionFor(bdf, []uint32{4, 64, 64})
		if err != nil {
			return CellMetrics{}, err
		}
		d := driver.NewSATADriver(sys.Mem, prot, sys.Eng, bdf, 4096, 256)
		// Cell-local completion-order stream, tagged apart from the fault
		// engine's stream on the same seed.
		rng := detrand.Source(seed ^ 0x736174616f726472) // "sataordr"
		lba := uint64(0)
		target = d
		op = func() error {
			if _, err := d.SubmitWrite(lba%64, payload); err != nil {
				return err
			}
			lba++
			_, err := d.CompleteAll(&rng)
			return err
		}
	default:
		return CellMetrics{}, fmt.Errorf("unknown block device %q", dev)
	}

	sup := sys.Supervise(bdf, target)
	if err := soak(sup, rounds, op); err != nil {
		return CellMetrics{}, err
	}
	return finish(sys, f, sup.Stats, target.Progress()), nil
}

// chaosCell drives one hostile-device scenario against a supervised, audited
// NIC: the legitimate workload runs every round under the circuit breaker,
// and the hostile device layers its attacks on top. The oracle judges every
// DMA the protection hardware let through.
func chaosCell(mode sim.Mode, scenario chaos.Scenario, seed uint64, rounds int) (CellMetrics, error) {
	// Injection stays quiet except in the cascade scenario, which opens a
	// multi-class fault storm across the middle third of the cell.
	w, err := cloneNICWorld(mode, seed, 0, true)
	if err != nil {
		return CellMetrics{}, err
	}
	return w.chaosSoak(scenario, rounds)
}

// chaosSoak runs one hostile-device scenario in w and closes w.
func (w nicWorld) chaosSoak(scenario chaos.Scenario, rounds int) (CellMetrics, error) {
	sys, f, drv, nic := w.sys, w.f, w.drv, w.nic
	defer sys.Close()
	sup := sys.Supervise(nicBDF, drv)
	sup.Breaker = driver.NewBreaker()
	sup.Isolator = sys.IsolatorFor(nicBDF)
	host := chaos.NewHostile(sys.Eng, sys.Auditor, nicBDF)

	// inv-flood churns map/unmap on a second device, hammering the shared
	// invalidation path while the victim runs its workload.
	var churn func() error
	if scenario == chaos.InvFlood {
		prot, err := sys.ProtectionFor(churnBDF, []uint32{64})
		if err != nil {
			return CellMetrics{}, err
		}
		frame, err := sys.Mem.AllocFrame()
		if err != nil {
			return CellMetrics{}, err
		}
		pa := frame.PA()
		churn = func() error {
			for i := 0; i < 8; i++ {
				iova, err := prot.Map(0, pa, 1024, pci.DirBidi)
				if err != nil {
					return err
				}
				if err := prot.Unmap(0, iova, 1024, true); err != nil {
					return err
				}
			}
			return nil
		}
	}

	// ro-write needs a live read-only mapping, which only exists between
	// Send and ReapTx — so that attack runs mid-round.
	var midTx func()
	if scenario == chaos.ROWrite {
		midTx = func() { host.WriteReadOnly(4) }
	}
	payload := nicPayload()
	workload := func() error { return nicRound(drv, payload, midTx) }

	stormStart, stormEnd := rounds/3, 2*rounds/3
	for round := 0; round < rounds; round++ {
		if scenario == chaos.Cascade {
			if round == stormStart {
				for _, cl := range faults.Classes() {
					f.SetRate(cl, 0.002)
				}
			} else if round == stormEnd {
				for _, cl := range faults.Classes() {
					f.SetRate(cl, 0)
				}
			}
		}
		// Failed rounds are the subject: the supervisor, breaker, and SLO
		// ledger record them.
		_ = sup.Do(workload)
		switch scenario {
		case chaos.StaleReplay:
			host.ReplayRetired(8)
		case chaos.Overreach:
			host.OverreachLive(4)
		case chaos.InvFlood:
			if err := churn(); err != nil {
				return CellMetrics{}, fmt.Errorf("inv-flood churn: %w", err)
			}
		case chaos.Cascade:
			host.ReplayRetired(2)
		}
		// A failed hang recovery mid-storm is chaos data, not a cell error.
		_, _ = sup.Watch()
	}

	c := finishNIC(sys, f, sup, nic.TxPackets+nic.RxPackets, true)
	c.Chaos = host.Stats
	recordSLO(&c, sup.SLO(), sys.CPU.Now())
	c.BreakerTrips, c.Readmissions = sup.Breaker.Trips, sup.Breaker.Readmissions
	return c, nil
}

// recordIntAudit copies the remapper's counters and the interrupt oracle's
// verdicts into the cell (every reason key present for stable columns).
func recordIntAudit(c *CellMetrics, rem *intremap.Remapper, orc *audit.IntOracle) {
	if rem == nil || orc == nil {
		return
	}
	st := rem.Stats()
	c.IntDelivered = st.Delivered
	c.IntBlocked = st.Blocked()
	c.IntViolations = orc.Violations
	c.IntByReason = make(map[string]uint64, len(audit.IntReasons()))
	for _, r := range audit.IntReasons() {
		c.IntByReason[r] = orc.ByReason[r]
	}
}

// addRecovery accumulates one supervisor's recovery counters into the cell
// (hot-plug cells re-supervise after every replug).
func addRecovery(dst *driver.RecoveryStats, s driver.RecoveryStats) {
	dst.Retries += s.Retries
	dst.Recoveries += s.Recoveries
	dst.WatchdogFires += s.WatchdogFires
	dst.Degradations += s.Degradations
	dst.Unrecovered += s.Unrecovered
	dst.Rejected += s.Rejected
}

// hotplugProfile keeps the topology-churn cells' repeated ring allocations
// inside the cell's memory budget.
func hotplugProfile() device.NICProfile {
	p := device.ProfileBRCM
	p.RxEntries = 64
	p.TxEntries = 64
	return p
}

// intchaosCell drives one hostile-MSI scenario against a supervised,
// interrupt-audited multi-queue NIC. The legitimate workload keeps raising
// and servicing real completion interrupts while the hostile requester
// layers its messages on top; the interrupt oracle judges every delivery.
func intchaosCell(mode sim.Mode, scenario chaos.IntScenario, seed uint64, rounds int) (CellMetrics, error) {
	sys, f, iorc, err := newIntWorld(mode, seed)
	if err != nil {
		return CellMetrics{}, err
	}
	defer sys.Close()
	mq, err := sys.HotAttachMQNIC(device.ProfileBRCM, nicBDF, 2, false)
	if err != nil {
		return CellMetrics{}, err
	}
	sup := sys.Supervise(nicBDF, mq)
	sup.Breaker = driver.NewBreaker()
	sup.Isolator = sys.IsolatorFor(nicBDF)
	host := chaos.NewIntHostile(sys.IntRemap, iorc, msiBDF, nicBDF)

	payload := nicPayload()
	for round := 0; round < rounds; round++ {
		_ = sup.Do(func() error { return mqTraffic(mq, payload) })
		switch scenario {
		case chaos.VectorStorm:
			host.RunInt(scenario, 16)
		case chaos.SpoofBDF:
			host.RunInt(scenario, 8)
		case chaos.IRTEReplay:
			// Periodic vector rebalance: tear the queues' sources down,
			// replay the freed indices as the ghost, then rewire. Deferred
			// IEC invalidation leaves the freed entries cached and
			// deliverable until the batched flush — the stale window the
			// oracle must flag.
			if round%8 == 7 {
				sys.DropIntSources(nicBDF)
				host.RunInt(scenario, 8)
				if err := sys.WireMQNICInterrupts(mq, nicBDF, false); err != nil {
					return CellMetrics{}, fmt.Errorf("vector rebalance: %w", err)
				}
			}
		}
		_, _ = sup.Watch()
	}

	// Injection is off in interrupt cells, which have never carried the
	// per-class fault counts.
	c := finishNIC(sys, f, sup, mqPackets(mq), false)
	recordIntAudit(&c, sys.IntRemap, iorc)
	c.Chaos = host.Stats
	recordSLO(&c, sup.SLO(), sys.CPU.Now())
	c.BreakerTrips, c.Readmissions = sup.Breaker.Trips, sup.Breaker.Readmissions
	return c, nil
}

// hotplugCell drives one topology-churn scenario through the lifecycle
// state machine under full (DMA + interrupt) audit. The SLO numbers here
// come from the lifecycle ledger: an outage runs from a surprise removal to
// the replug that returns the slot to Live.
func hotplugCell(mode sim.Mode, scenario string, seed uint64, rounds int) (CellMetrics, error) {
	sys, f, iorc, err := newIntWorld(mode, seed)
	if err != nil {
		return CellMetrics{}, err
	}
	defer sys.Close()
	lc := sys.LifecycleFor(nicBDF)
	payload := nicPayload()

	c := CellMetrics{}

	// yank latches fresh completions on every queue, surprise-removes the
	// device, then has the ghost's reap paths run: anything they deliver is
	// a ghost delivery the gate fails on.
	yank := func(mq *driver.MQNIC) error {
		for q := 0; q < len(mq.Queues); q++ {
			if err := mq.Send(payload); err != nil {
				return err
			}
		}
		for _, drv := range mq.Queues {
			if _, err := drv.PumpTx(int(drv.TxRing().Pending())); err != nil {
				return err
			}
		}
		before := sys.IntRemap.Stats().Delivered
		if err := lc.SurpriseRemove(); err != nil {
			return err
		}
		for _, drv := range mq.Queues {
			_, _ = drv.ReapTx()
			_, _ = drv.ReapRx()
		}
		c.GhostDeliveries += sys.IntRemap.Stats().Delivered - before
		return nil
	}
	// supervised runs n traffic rounds on mq under a fresh breaker-equipped
	// supervisor (the previous one died with the previous device).
	supervised := func(mq *driver.MQNIC, n int) {
		sup := sys.Supervise(nicBDF, mq)
		sup.Breaker = driver.NewBreaker()
		for i := 0; i < n; i++ {
			_ = sup.Do(func() error { return mqTraffic(mq, payload) })
			_, _ = sup.Watch()
		}
		addRecovery(&c.Recovery, sup.Stats)
	}

	switch scenario {
	case HotplugAttachStorm:
		phases := 6
		perPhase := rounds / phases
		if perPhase < 1 {
			perPhase = 1
		}
		for p := 0; p < phases; p++ {
			mq, err := sys.HotAttachMQNIC(hotplugProfile(), nicBDF, 2, false)
			if err != nil {
				return CellMetrics{}, fmt.Errorf("phase %d attach: %w", p, err)
			}
			supervised(mq, perPhase)
			if err := yank(mq); err != nil {
				return CellMetrics{}, fmt.Errorf("phase %d yank: %w", p, err)
			}
		}
		// Final replug closes the last outage.
		mq, err := sys.HotAttachMQNIC(hotplugProfile(), nicBDF, 2, false)
		if err != nil {
			return CellMetrics{}, fmt.Errorf("final attach: %w", err)
		}
		supervised(mq, perPhase)

	case HotplugDMAEarly:
		// The device DMAs before the OS ever attached it: in every
		// protected mode the accesses must fault (there is no context/table
		// entry to translate through). The probes target another tenant's
		// allocated buffer so the unprotected anchor shows what actually
		// lands without an IOMMU.
		victim, err := sys.Mem.AllocFrame()
		if err != nil {
			return CellMetrics{}, err
		}
		probe := make([]byte, 64)
		for i := 0; i < rounds; i++ {
			c.Chaos.Attempts++
			iova := uint64(victim.PA()) + uint64(i%63)*64
			if err := sys.Eng.Write(nicBDF, iova, probe); err != nil {
				c.Chaos.Contained++
			} else {
				c.Chaos.Landed++
			}
		}
		mq, err := sys.HotAttachMQNIC(hotplugProfile(), nicBDF, 2, false)
		if err != nil {
			return CellMetrics{}, err
		}
		supervised(mq, rounds)

	case HotplugSurprise:
		mq, err := sys.HotAttachMQNIC(hotplugProfile(), nicBDF, 2, false)
		if err != nil {
			return CellMetrics{}, err
		}
		supervised(mq, rounds/2)
		if err := yank(mq); err != nil {
			return CellMetrics{}, err
		}
		if err := lc.Quarantine(); err != nil {
			return CellMetrics{}, err
		}
		// A quarantined slot stays silent until the operator clears it.
		for _, drv := range mq.Queues {
			_, _ = drv.ReapTx()
		}
		mq2, err := sys.HotAttachMQNIC(hotplugProfile(), nicBDF, 2, false)
		if err != nil {
			return CellMetrics{}, fmt.Errorf("replug from quarantine: %w", err)
		}
		supervised(mq2, rounds-rounds/2)

	default:
		return CellMetrics{}, fmt.Errorf("unknown hot-plug scenario %q", scenario)
	}

	c.Injected = f.TotalInjected()
	c.RecoveryCycles = sys.CPU.Total(cycles.Recovery)
	c.Attaches = lc.Attaches
	c.Removals = lc.Removals
	c.Quarantines = lc.Quarantines
	recordSLO(&c, lc.SLO(), sys.CPU.Now())
	recordAudit(&c, sys.Auditor, 0)
	recordIntAudit(&c, sys.IntRemap, iorc)
	c.Clock = sys.CPU.Snapshot()
	return c, nil
}

// IntremapViolationsGate checks the interrupt-isolation claims the intchaos
// and hot-plug cells must uphold:
//
//   - outside the deliberate stale window, no cell with remapping hardware
//     (every mode but none) may record a delivered interrupt violation;
//   - liveness: the deferred modes' irte-replay cells must record int-stale
//     deliveries — zero there means the oracle went blind, not that the
//     deferred IEC closed its window;
//   - attack cells with attempts must show blocked messages (the remapper
//     actually refused something);
//   - hot-plug: every surprise removal closes with a finite outage (the SLO
//     ledger has an MTTR for it), ghosts never deliver, and early DMA never
//     lands under protection.
func (r Result) IntremapViolationsGate() []string {
	var fails []string
	deferReplayCells, sawStale := 0, false
	for i, k := range r.Keys {
		c := r.Cells[i]
		if !r.done(i) || (k.IntScenario == "" && k.Hotplug == "") {
			continue
		}
		if k.Mode == sim.None {
			continue // no remapping hardware, nothing to gate
		}
		deferMode := k.Mode == sim.Defer || k.Mode == sim.DeferPlus
		if k.IntScenario == string(chaos.IRTEReplay) && deferMode {
			// The stale window is this cell's subject: landings are expected
			// here (and required, via the liveness check below), so neither
			// the zero-violations nor the must-block expectation applies.
			deferReplayCells++
			if c.IntByReason[audit.IntReasonStale] > 0 {
				sawStale = true
			}
		} else {
			if c.IntViolations != 0 {
				fails = append(fails, fmt.Sprintf("%s: %d delivered interrupt violations", k, c.IntViolations))
			}
			if k.IntScenario != "" && c.Chaos.Attempts > 0 && c.IntBlocked == 0 {
				fails = append(fails, fmt.Sprintf("%s: hostile MSIs attempted but none blocked — remapper asleep", k))
			}
		}
		if k.Hotplug != "" {
			if c.GhostDeliveries != 0 {
				fails = append(fails, fmt.Sprintf("%s: %d interrupts delivered by a removed device", k, c.GhostDeliveries))
			}
			if c.Removals > 0 && (c.Outages != c.Removals || c.MTTRCycles <= 0) {
				fails = append(fails, fmt.Sprintf("%s: %d removals but %d finished outages (MTTR %.0f) — SLO ledger incomplete", k, c.Removals, c.Outages, c.MTTRCycles))
			}
			if k.Hotplug == HotplugDMAEarly && c.Chaos.Landed != 0 {
				fails = append(fails, fmt.Sprintf("%s: %d pre-attach DMAs landed under protection", k, c.Chaos.Landed))
			}
		}
	}
	if deferReplayCells > 0 && !sawStale {
		fails = append(fails, "defer irte-replay cells recorded zero stale deliveries — interrupt oracle liveness check failed")
	}
	return fails
}

// AuditViolationsGate checks the isolation claims the audited cells must
// uphold and returns one failure message per broken expectation:
//
//   - gap-free modes (strict, strict+, riommu-, riommu) must be violation-
//     free in every audited cell that neither injects faults (rate > 0) nor
//     runs the cascade scenario — injected invalidation-drop/delay errata can
//     defeat even strict invalidation, which is the erratum's point.
//   - overreach is gated only for the rIOMMU modes: page-granular baseline
//     protection cannot contain sub-page overreach (§4), byte-granular rPTEs
//     must.
//   - liveness: the deferred modes' stale-replay cells must record stale
//     violations — zero there means the auditor went blind, not that the
//     defer window closed.
func (r Result) AuditViolationsGate() []string {
	var fails []string
	deferStaleCells, sawDeferStale := 0, false
	for i, k := range r.Keys {
		c := r.Cells[i]
		if !r.done(i) || !c.Audited {
			continue
		}
		if k.Scenario == string(chaos.Cascade) || k.Rate > 0 {
			continue
		}
		if k.Scenario == string(chaos.StaleReplay) && (k.Mode == sim.Defer || k.Mode == sim.DeferPlus) {
			deferStaleCells++
			if c.ByReason[audit.ReasonStale] > 0 {
				sawDeferStale = true
			}
		}
		if k.Scenario == string(chaos.Overreach) {
			if (k.Mode == sim.RIOMMU || k.Mode == sim.RIOMMUMinus) && c.Violations != 0 {
				fails = append(fails, fmt.Sprintf("%s: %d violations — rIOMMU must contain sub-page overreach", k, c.Violations))
			}
			continue
		}
		if k.Mode.Safe() && c.Violations != 0 {
			fails = append(fails, fmt.Sprintf("%s: %d isolation violations in a gap-free mode", k, c.Violations))
		}
	}
	if deferStaleCells > 0 && !sawDeferStale {
		fails = append(fails, "defer stale-replay cells recorded zero stale violations — auditor liveness check failed")
	}
	return fails
}

// rows adds one row to tab per cell whose key satisfies pred, in grid
// order, and returns tab.
func (r Result) rows(tab *stats.Table, pred func(Key) bool, row func(Key, CellMetrics) []any) *stats.Table {
	for i, k := range r.Keys {
		if pred(k) {
			tab.Row(row(k, r.Cells[i])...)
		}
	}
	return tab
}

// Render produces the human-readable campaign tables from a merged result.
// It walks Keys in grid order only, so its output is worker-count
// independent.
func (r Result) Render() string {
	var b strings.Builder

	// Clean NIC anchors per mode for the degradation column.
	clean := map[sim.Mode]CellMetrics{}
	for i, k := range r.Keys {
		if k.Device == "nic" && k.Clean {
			clean[k.Mode] = r.Cells[i]
		}
	}

	var byClass stats.Counters
	nicTab := stats.NewTable(
		fmt.Sprintf("NIC campaign — %s, %d rounds/cell", device.ProfileBRCM.Name, r.Opts.Rounds),
		"mode", "rate", "injected", "recov", "retries", "wdog", "degrade", "unrec", "cyc/pkt", "Gbps", "vs clean")
	nicTab.AlignLeft(0)
	r.rows(nicTab, func(k Key) bool {
		return k.Device == "nic" && !k.Clean && k.Cores <= 1 && k.Churn == 0
	}, func(k Key, c CellMetrics) []any {
		for _, cl := range faults.Classes() {
			byClass.Add(cl.String(), c.ByClass[cl.String()])
		}
		vs := "n/a"
		if anchor := clean[k.Mode]; anchor.Gbps > 0 {
			vs = fmt.Sprintf("%.1f%%", 100*c.Gbps/anchor.Gbps)
		}
		return []any{k.Mode.String(), fmt.Sprintf("%g", k.Rate), c.Injected, c.Recovery.Recoveries,
			c.Recovery.Retries, c.Recovery.WatchdogFires, c.Recovery.Degradations,
			c.Recovery.Unrecovered, c.CyclesPerOp, c.Gbps, vs}
	})
	b.WriteString(nicTab.String())
	b.WriteByte('\n')
	b.WriteString(byClass.Table("Injected faults by class (NIC sweep total)").String())
	b.WriteByte('\n')

	blkTab := stats.NewTable(
		fmt.Sprintf("Block-device campaign — %d rounds/cell", r.Opts.Rounds),
		"device", "mode", "rate", "injected", "recov", "retries", "wdog", "unrec", "recovery cyc", "cyc/cmd")
	blkTab.AlignLeft(0).AlignLeft(1)
	b.WriteString(r.rows(blkTab, func(k Key) bool { return k.Device != "nic" }, func(k Key, c CellMetrics) []any {
		return []any{k.Device, k.Mode.String(), fmt.Sprintf("%g", k.Rate), c.Injected,
			c.Recovery.Recoveries, c.Recovery.Retries, c.Recovery.WatchdogFires,
			c.Recovery.Unrecovered, c.RecoveryCycles, c.CyclesPerOp}
	}).String())

	// The axis tables follow, each only when its axis has cells.
	for _, sec := range []struct {
		has func(Key) bool
		tab *stats.Table
		row func(Key, CellMetrics) []any
	}{{
		func(k Key) bool { return k.Cores > 1 },
		stats.NewTable(
			fmt.Sprintf("NIC scale-out campaign — %s multi-queue, %d rounds/cell", device.ProfileBRCM.Name, r.Opts.Rounds),
			"mode", "cores", "rate", "injected", "recov", "retries", "wdog", "unrec", "cyc/pkt", "Gbps").AlignLeft(0),
		func(k Key, c CellMetrics) []any {
			return []any{k.Mode.String(), k.Cores, fmt.Sprintf("%g", k.Rate), c.Injected,
				c.Recovery.Recoveries, c.Recovery.Retries, c.Recovery.WatchdogFires,
				c.Recovery.Unrecovered, c.CyclesPerOp, c.Gbps}
		},
	}, {
		func(k Key) bool { return k.Scenario != "" },
		stats.NewTable(
			fmt.Sprintf("Chaos campaign — hostile NIC, %d rounds/cell", r.Opts.Rounds),
			"mode", "scenario", "attempts", "contained", "landed", "viol", "stale", "bounds", "viol/Mpkt", "trips", "readmit", "mttr cyc", "avail").AlignLeft(0).AlignLeft(1),
		func(k Key, c CellMetrics) []any {
			return []any{k.Mode.String(), k.Scenario, c.Chaos.Attempts, c.Chaos.Contained,
				c.Chaos.Landed, c.Violations, c.ByReason[audit.ReasonStale],
				c.ByReason[audit.ReasonBounds], fmt.Sprintf("%.1f", c.ViolPerMPkts),
				c.BreakerTrips, c.Readmissions, fmt.Sprintf("%.0f", c.MTTRCycles),
				fmt.Sprintf("%.4f", c.Availability)}
		},
	}, {
		func(k Key) bool { return k.IntScenario != "" },
		stats.NewTable(
			fmt.Sprintf("Interrupt chaos campaign — hostile MSI source, %d rounds/cell", r.Opts.Rounds),
			"mode", "scenario", "attempts", "contained", "landed", "delivered", "blocked", "viol", "stale", "trips", "mttr cyc", "avail").AlignLeft(0).AlignLeft(1),
		func(k Key, c CellMetrics) []any {
			return []any{k.Mode.String(), k.IntScenario, c.Chaos.Attempts, c.Chaos.Contained,
				c.Chaos.Landed, c.IntDelivered, c.IntBlocked, c.IntViolations,
				c.IntByReason[audit.IntReasonStale], c.BreakerTrips,
				fmt.Sprintf("%.0f", c.MTTRCycles), fmt.Sprintf("%.4f", c.Availability)}
		},
	}, {
		func(k Key) bool { return k.Hotplug != "" },
		stats.NewTable(
			fmt.Sprintf("Hot-plug campaign — lifecycle churn, %d rounds/cell", r.Opts.Rounds),
			"mode", "scenario", "attach", "remove", "quar", "ghost", "early landed", "int viol", "outages", "mttr cyc", "avail").AlignLeft(0).AlignLeft(1),
		func(k Key, c CellMetrics) []any {
			return []any{k.Mode.String(), k.Hotplug, c.Attaches, c.Removals, c.Quarantines,
				c.GhostDeliveries, c.Chaos.Landed, c.IntViolations, c.Outages,
				fmt.Sprintf("%.0f", c.MTTRCycles), fmt.Sprintf("%.4f", c.Availability)}
		},
	}, {
		func(k Key) bool { return k.Tenants > 0 },
		stats.NewTable(
			fmt.Sprintf("Multi-tenant campaign — hostile tenant 0, %d rounds/cell", r.Opts.Rounds),
			"mode", "scenario", "tenants", "attempts", "contained", "xten", "tviol", "s2miss", "spoofblk", "throttle", "quar", "victim avail", "hostile avail").AlignLeft(0).AlignLeft(1),
		func(k Key, c CellMetrics) []any {
			return []any{k.Mode.String(), k.TenantScenario, k.Tenants, c.Chaos.Attempts,
				c.Chaos.Contained, c.CrossTenant, c.TenantViolations, c.S2Misses,
				c.SpoofBlocked, c.Throttled, c.TenantQuarantines,
				fmt.Sprintf("%.4f", c.VictimAvailability),
				fmt.Sprintf("%.4f", c.HostileAvailability)}
		},
	}, {
		func(k Key) bool { return k.Churn > 0 },
		stats.NewTable(
			fmt.Sprintf("Connection-churn campaign — %s fleet traffic, %d ticks/cell", device.ProfileBRCM.Name, r.Opts.Rounds),
			"mode", "conns", "pkts", "opens", "closes", "bypass", "checked", "viol", "cyc/pkt", "Gbps").AlignLeft(0),
		func(k Key, c CellMetrics) []any {
			return []any{k.Mode.String(), k.Churn, c.DataPackets, c.Opens, c.Closes,
				c.BypassPackets, c.Checked, c.Violations, c.CyclesPerOp, c.Gbps}
		},
	}} {
		if slices.ContainsFunc(r.Keys, sec.has) {
			b.WriteByte('\n')
			b.WriteString(r.rows(sec.tab, sec.has, sec.row).String())
		}
	}
	return b.String()
}
