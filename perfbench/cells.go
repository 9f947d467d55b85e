package main

import (
	"fmt"
	"runtime"
	"time"

	"riommu/internal/campaign"
	"riommu/internal/core"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/faults"
	"riommu/internal/iotlb"
	"riommu/internal/parallel"
	"riommu/internal/pci"
	"riommu/internal/sim"
)

// The fault-cells workload is the grid-check campaign shape (8 rounds,
// unaudited, one worker) split into steps: each step is one campaign.Run
// over one (mode, rate), which runs a clean NIC cell, a NIC cell at the
// rate, an NVMe cell and a SATA cell, each in a world of its own. A sweep
// is one step per mode and rate.
const (
	cellRounds = 8
	// cellSimSweeps is the deterministic prefix the simulated outputs and
	// the per-mode counters cover.
	cellSimSweeps = 4
)

// cellRates leaves out grid-check's 0.01 rate: at that rate a corrupted
// descriptor length makes device.(*NIC).ProcessTx and
// driver.(*NICDriver).ReapRx allocate host buffers of that length, which
// takes a run's peak resident memory to several GiB and its cell rate
// anywhere from 260 to 1600 cells/s depending on the seed. Add it back once
// descriptor lengths are bounded.
var cellRates = []float64{0}

// cellNICBDF is the campaign's NIC identity. The replay's ledger check
// fails if it ever differs from the one campaign.Run uses.
var cellNICBDF = pci.NewBDF(0, 3, 0)

func sweepSeed(seed uint64, sweep int) uint64 {
	return parallel.CellSeed(seed, fmt.Sprintf("perfbench/fault-cells/sweep=%d", sweep))
}

func cellOptions(seed uint64, mode sim.Mode, rate float64) campaign.Options {
	return campaign.Options{
		Seed:    seed,
		Rates:   []float64{rate},
		Modes:   []sim.Mode{mode},
		Rounds:  cellRounds,
		Workers: 1,
	}
}

// cellStep runs one campaign.Run; the step fails on an error or an
// incomplete result.
func cellStep(seed uint64, mode sim.Mode, rate float64, r *report) (campaign.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := campaign.Run(cellOptions(seed, mode, rate))
	d := time.Since(t0)
	r.attempted++
	if err != nil {
		return res, d, fmt.Errorf("%s r=%g: campaign.Run: %w", mode, rate, err)
	}
	r.check(res.Complete(), "%s r=%g: campaign.Run left cells incomplete", mode, rate)
	return res, d, nil
}

// cellSweep runs one sweep, appending each step's host time to w and
// handing each step's result to each.
func cellSweep(seed uint64, w *window, r *report, each func(sim.Mode, campaign.Result) error) error {
	for _, m := range benchModes {
		for _, rate := range cellRates {
			res, d, err := cellStep(seed, m, rate, r)
			w.steps = append(w.steps, d)
			w.busy += d
			if err != nil {
				return err
			}
			w.ops += uint64(len(res.Keys))
			if err := each(m, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// modeCells sums one mode's NIC cells over the deterministic prefix.
type modeCells struct {
	cells    int
	perOp    float64 // summed CyclesPerOp
	recovery uint64  // summed recovery cycles

	// From the replays (traced runs only).
	ledger     cycles.Snapshot
	pkts       uint64
	tlb        iotlb.Stats
	core       core.Stats
	injected   uint64
	retries    uint64
	recoveries uint64
}

func (c *modeCells) add(res campaign.Result) {
	for i, k := range res.Keys {
		if k.Device == "nic" {
			c.cells++
			c.perOp += res.Cells[i].CyclesPerOp
			c.recovery += res.Cells[i].RecoveryCycles
		}
	}
}

func runFaultCells(o opts, r *report) error {
	// Set-up passes: each runs one cold-start step per mode. The first pass
	// pays the process's first world construction.
	var passes []time.Duration
	for p := 0; p < setupPasses; p++ {
		runtime.GC() // as in runChurn
		t0 := time.Now()
		for _, m := range benchModes {
			if _, _, err := cellStep(parallel.CellSeed(o.seed, "perfbench/fault-cells/setup"), m, 0, r); err != nil {
				return err
			}
		}
		passes = append(passes, time.Since(t0))
	}

	var w window
	sums := map[sim.Mode]*modeCells{}
	for _, m := range benchModes {
		sums[m] = &modeCells{}
	}
	sweeps := 0
	err := w.measure(func() error {
		start := time.Now()
		for ; sweeps < cellSimSweeps || time.Since(start) < o.window; sweeps++ {
			prefix := sweeps < cellSimSweeps
			err := cellSweep(sweepSeed(o.seed, sweeps), &w, r, func(m sim.Mode, res campaign.Result) error {
				if prefix {
					sums[m].add(res)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if sweeps+1 == cellSimSweeps {
				w.rss = peakRSSMiB()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	if !o.trace {
		r.add("setup_s", "s", median(passes).Seconds(), len(passes))
		reportWindow(r, &w)
		for _, m := range benchModes {
			c := sums[m]
			r.add("sim_cycles_per_pkt."+modeKey(m), "cycles", ratio(c.perOp, float64(c.cells)), c.cells)
		}
		return nil
	}

	// Traced run: the same sweeps again; after each step, every NIC cell is
	// replayed through its public call sequence with each call timed, and
	// the replay must end on the campaign cell's exact cycle ledger.
	var tw window
	var sp nicSpans
	err = tw.measure(func() error {
		for s := 0; s < sweeps; s++ {
			seed := sweepSeed(o.seed, s)
			err := cellSweep(seed, &tw, r, func(m sim.Mode, res campaign.Result) error {
				for i, k := range res.Keys {
					if k.Device != "nic" {
						continue
					}
					rate := k.Rate
					if k.Clean {
						rate = 0
					}
					out, err := replayNIC(m, parallel.CellSeed(seed, k.String()), rate, &sp)
					r.attempted++
					if err != nil {
						return fmt.Errorf("replay %s: %w", k, err)
					}
					want := res.Cells[i]
					r.check(out.clock == want.Clock && out.injected == want.Injected && out.recovery == want.Recovery,
						"replay %s: ledger, faults or recovery differ from campaign.Run", k)
					if s < cellSimSweeps {
						c := sums[m]
						c.ledger = addSnap(c.ledger, out.clock)
						c.pkts += out.pkts
						c.tlb = addTLB(c.tlb, out.tlb)
						c.core = addCore(c.core, out.core)
						c.injected += out.injected
						c.retries += out.recovery.Retries
						c.recoveries += out.recovery.Recoveries
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	pl := newPerLayer()
	perCell := func(d time.Duration) time.Duration {
		if sp.cells == 0 {
			return 0
		}
		return d / time.Duration(sp.cells)
	}
	pl.ms("sim.new_system_ms", perCell(sp.newSystem), sp.cells)
	pl.ms("sim.attach_nic_ms", perCell(sp.attach), sp.cells)
	pl.ms("driver.round_ms", perCell(sp.round), sp.cells)
	pl.ms("driver.watch_ms", perCell(sp.watch), sp.cells)
	pl.ms("sim.close_ms", perCell(sp.close), sp.cells)
	pl.set("replay.cells", float64(sp.cells), 1)
	var injected, retries, recoveries uint64
	for _, m := range benchModes {
		c, mk := sums[m], modeKey(m)
		injected += c.injected
		retries += c.retries
		recoveries += c.recoveries
		lookups := c.tlb.Hits + c.tlb.Misses
		pl.set("iotlb.hit_ratio."+mk, ratio(float64(c.tlb.Hits), float64(lookups)), int(lookups))
		pl.set("iotlb.lookups."+mk, float64(lookups), 1)
		pl.set("iotlb.invalidates."+mk, float64(c.tlb.Invalidates), 1)
		pl.set("iotlb.global_flushes."+mk, float64(c.tlb.GlobalFlush), 1)
		loads := c.core.PrefetchHits + c.core.TableFetches
		pl.set("core.prefetch_hit_ratio."+mk, ratio(float64(c.core.PrefetchHits), float64(loads)), int(loads))
		pl.set("core.rpte_loads."+mk, float64(loads), 1)
		pl.set("core.table_fetches."+mk, float64(c.core.TableFetches), 1)
		pl.set("cycles.recovery_per_cell."+mk, ratio(float64(c.recovery), float64(c.cells)), c.cells)
		for _, comp := range ledgerRows {
			pl.set(cycleName(comp, mk), ratio(float64(c.ledger.Total(comp)), float64(c.pkts)), int(c.pkts))
		}
	}
	pl.set("faults.injected", float64(injected), 1)
	pl.set("driver.retries", float64(retries), 1)
	pl.set("driver.recoveries", float64(recoveries), 1)
	pl.set("setup.first_s", passes[0].Seconds(), 1)
	reportTrace(pl, &w, &tw)
	return pl.emit(r)
}

// nicSpans is the host time of each public call of a replayed NIC cell,
// summed over cells.
type nicSpans struct {
	newSystem, attach, round, watch, close time.Duration
	cells                                  int
}

// nicOutcome is what one replayed NIC cell ended with.
type nicOutcome struct {
	clock    cycles.Snapshot
	injected uint64
	recovery driver.RecoveryStats
	pkts     uint64
	tlb      iotlb.Stats
	core     core.Stats
}

// replayNIC repeats campaign.Run's NIC cell (a supervised NIC soaked under
// uniform fault injection) call by call, timing each call.
func replayNIC(mode sim.Mode, seed uint64, rate float64, sp *nicSpans) (nicOutcome, error) {
	t0 := time.Now()
	sys, err := sim.NewSystem(mode, 1<<15)
	sp.newSystem += time.Since(t0)
	if err != nil {
		return nicOutcome{}, err
	}
	f := sys.EnableFaults(faults.UniformConfig(seed, rate))
	t0 = time.Now()
	drv, nic, err := sys.AttachNIC(device.ProfileBRCM, cellNICBDF)
	sp.attach += time.Since(t0)
	if err != nil {
		sys.Close()
		return nicOutcome{}, err
	}
	sup := sys.Supervise(cellNICBDF, drv)
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	for round := 0; round < cellRounds; round++ {
		t0 = time.Now()
		// A failed round is what the cell measures: the supervisor counts
		// it and the watchdog clears any wedge.
		_ = sup.Do(func() error {
			if err := drv.Send(payload); err != nil {
				return err
			}
			if _, err := drv.PumpTx(2); err != nil {
				return err
			}
			if _, err := drv.ReapTx(); err != nil {
				return err
			}
			if err := drv.Deliver(payload); err != nil {
				return err
			}
			_, err := drv.ReapRx()
			return err
		})
		sp.round += time.Since(t0)
		t0 = time.Now()
		_, err := sup.Watch()
		sp.watch += time.Since(t0)
		if err != nil {
			sys.Close()
			return nicOutcome{}, fmt.Errorf("watchdog recovery failed: %w", err)
		}
	}
	out := nicOutcome{
		clock:    sys.CPU.Snapshot(),
		injected: f.TotalInjected(),
		recovery: sup.Stats,
		pkts:     nic.TxPackets + nic.RxPackets,
	}
	out.tlb, out.core = hwStats(sys)
	t0 = time.Now()
	sys.Close()
	sp.close += time.Since(t0)
	sp.cells++
	return out, nil
}

func addSnap(a, b cycles.Snapshot) cycles.Snapshot {
	a.Now += b.Now
	for i := range a.ByComponent {
		a.ByComponent[i] += b.ByComponent[i]
		a.Charges[i] += b.Charges[i]
	}
	return a
}

func addTLB(a, b iotlb.Stats) iotlb.Stats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Invalidates += b.Invalidates
	a.GlobalFlush += b.GlobalFlush
	return a
}

func addCore(a, b core.Stats) core.Stats {
	a.PrefetchHits += b.PrefetchHits
	a.TableFetches += b.TableFetches
	return a
}
