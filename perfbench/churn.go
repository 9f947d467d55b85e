package main

import (
	"fmt"
	"runtime"
	"time"

	"riommu/internal/core"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/iotlb"
	"riommu/internal/parallel"
	"riommu/internal/sim"
	"riommu/internal/traffic"
)

// The churn workloads are the Figure S2 full-quality 1M-connection cell
// (MLX profile, 2048 live table slots, one packet per flow, incast every 4
// ticks, diurnal load) with the campaign churn axis's 250 per-mille bypass
// mix. Every mode runs the same Config, so the application byte stream is
// the same across modes.
const (
	churnSlots       = 2048
	churnWarmupTicks = 24
	// churnEpochTicks is one epoch: the figure cell's measured window. The
	// engines are drained and their results read at every epoch boundary.
	churnEpochTicks = 96
	// churnSimEpochs is the deterministic prefix the simulated outputs and
	// the per-mode counters cover; it does not depend on host speed.
	churnSimEpochs = 2
)

func churnConfig(mode sim.Mode, seed uint64, audit bool) traffic.Config {
	return traffic.Config{
		Mode:            mode,
		Profile:         device.ProfileMLX,
		Seed:            parallel.CellSeed(seed, "perfbench/churn"),
		TableSlots:      churnSlots,
		MeanFlowPackets: 1,
		BypassPermille:  250,
		MsgsPerTick:     16,
		IncastEvery:     4,
		IncastFan:       48,
		Diurnal:         true,
		Audit:           audit,
	}
}

// lane is one mode's engine and what the benchmark measured on it.
type lane struct {
	mode sim.Mode
	e    *traffic.Engine
	last traffic.Result // at the previous epoch boundary

	busy time.Duration // host time in Tick and Finish
	ops  uint64        // data+rx packets

	// The deterministic prefix (first churnSimEpochs epochs).
	simCycles    cycles.Snapshot
	simPkts      uint64
	simChecked   uint64
	simMapEvents uint64
	simDMABytes  uint64
	tlb0, tlb1   iotlb.Stats
	core0, core1 core.Stats
	simDone      traffic.Result

	// Cumulative results at every epoch boundary, for the purity check.
	epochs []traffic.Result

	// Traced lanes only.
	tr *translateSpan
	au *span
}

// newLane builds one mode's engine and warms it up; the clocks are reset at
// the end, as traffic.RunSchedule does, so the ledger covers only the
// measured window.
func newLane(mode sim.Mode, seed uint64, audit bool, newEngine *[]time.Duration) (*lane, error) {
	t0 := time.Now()
	e, err := traffic.NewEngine(churnConfig(mode, seed, audit))
	*newEngine = append(*newEngine, time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("%s: NewEngine: %w", mode, err)
	}
	l := &lane{mode: mode, e: e}
	for t := 0; t < churnWarmupTicks; t++ {
		if err := e.Tick(); err != nil {
			e.Close()
			return nil, fmt.Errorf("%s: warmup Tick: %w", mode, err)
		}
	}
	if err := e.Drain(); err != nil {
		e.Close()
		return nil, fmt.Errorf("%s: Drain: %w", mode, err)
	}
	e.System().ResetClocks()
	if l.last, err = e.Finish(); err != nil {
		e.Close()
		return nil, fmt.Errorf("%s: Finish: %w", mode, err)
	}
	l.tlb0, l.core0 = hwStats(e.System())
	return l, nil
}

// hwStats reads the translation hardware's counters: the IOTLB in the
// baseline modes, the rIOMMU otherwise.
func hwStats(sys *sim.System) (iotlb.Stats, core.Stats) {
	var t iotlb.Stats
	var c core.Stats
	if sys.BaseHW != nil {
		t = sys.BaseHW.TLB().Stats()
	}
	if sys.RHW != nil {
		c = sys.RHW.Stats()
	}
	return t, c
}

// buildLanes builds every mode's lane. On error the lanes already built are
// closed.
func buildLanes(seed uint64, audit bool, newEngine *[]time.Duration) ([]*lane, error) {
	var lanes []*lane
	for _, m := range benchModes {
		l, err := newLane(m, seed, audit, newEngine)
		if err != nil {
			closeLanes(lanes, nil)
			return nil, err
		}
		lanes = append(lanes, l)
	}
	return lanes, nil
}

// closeLanes tears every lane down and returns the first error.
func closeLanes(lanes []*lane, closeTimes *[]time.Duration) error {
	var first error
	for _, l := range lanes {
		t0 := time.Now()
		err := l.e.Close()
		if closeTimes != nil {
			*closeTimes = append(*closeTimes, time.Since(t0))
		}
		if err != nil && first == nil {
			first = fmt.Errorf("%s: Close: %w", l.mode, err)
		}
	}
	return first
}

// runEpoch advances every lane churnEpochTicks ticks, interleaving the
// modes tick by tick, then reads each lane's result. Each Tick is one step.
func runEpoch(lanes []*lane, steps *[]time.Duration, r *report) error {
	for t := 0; t < churnEpochTicks; t++ {
		for _, l := range lanes {
			t0 := time.Now()
			err := l.e.Tick()
			d := time.Since(t0)
			l.busy += d
			*steps = append(*steps, d)
			r.attempted++
			if err != nil {
				return fmt.Errorf("%s: Tick: %w", l.mode, err)
			}
		}
	}
	for _, l := range lanes {
		t0 := time.Now()
		res, err := l.e.Finish()
		l.busy += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: Finish: %w", l.mode, err)
		}
		l.endEpoch(res)
	}
	app := lanes[0].last.AppDigest
	for _, l := range lanes[1:] {
		r.check(l.last.AppDigest == app, "epoch %d: %s AppDigest %#x != %s AppDigest %#x",
			len(l.epochs), l.mode, l.last.AppDigest, lanes[0].mode, app)
	}
	return nil
}

func (l *lane) endEpoch(res traffic.Result) {
	pkts := res.DataPackets - l.last.DataPackets
	l.ops += pkts + res.RxPackets - l.last.RxPackets
	if len(l.epochs) < churnSimEpochs {
		l.simCycles = res.Cycles // cumulative since the post-warmup reset
		l.simPkts += pkts
		l.simChecked += res.AuditChecked - l.last.AuditChecked
		l.simMapEvents += res.MapEvents - l.last.MapEvents
		if l.tr != nil {
			l.simDMABytes = l.tr.bytes
		}
		l.tlb1, l.core1 = hwStats(l.e.System())
		l.simDone = res
	}
	l.epochs = append(l.epochs, res)
	l.last = res
}

// window is one measured stretch of steps.
type window struct {
	steps []time.Duration
	busy  time.Duration
	ops   uint64
	alloc uint64 // heap bytes allocated
	gcs   uint32
	pause time.Duration
	// rss is the peak resident memory at the end of the deterministic
	// prefix: a fixed amount of simulated work, so a faster simulator that
	// fits more work into the window does not read as a bigger one.
	rss float64
}

func (w *window) opsPerSec() float64 { return ratio(float64(w.ops), w.busy.Seconds()) }

// measure runs fn between two heap-statistics readings. It collects the
// set-up's garbage first, so every window starts from the same heap phase.
func (w *window) measure(fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	w.alloc = m1.TotalAlloc - m0.TotalAlloc
	w.gcs = m1.NumGC - m0.NumGC
	w.pause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return err
}

// runChurn is the churn and churn-audited workloads.
func runChurn(o opts, audit bool, r *report) error {
	// Set-up passes: build and warm every mode's engine; all but the last
	// pass's engines are closed again.
	var newEngine, closeTimes, passes []time.Duration
	var lanes []*lane
	for p := 0; p < setupPasses; p++ {
		if lanes != nil {
			if err := closeLanes(lanes, &closeTimes); err != nil {
				return err
			}
		}
		// Each pass starts from a collected heap, so collecting the last
		// pass's garbage does not land in one pass at random.
		runtime.GC()
		t0 := time.Now()
		var err error
		lanes, err = buildLanes(o.seed, audit, &newEngine)
		passes = append(passes, time.Since(t0))
		if err != nil {
			return err
		}
	}
	defer func() {
		if lanes != nil {
			closeLanes(lanes, nil)
		}
	}()

	var w window
	err := w.measure(func() error {
		start := time.Now()
		for len(lanes[0].epochs) < churnSimEpochs || time.Since(start) < o.window {
			if err := runEpoch(lanes, &w.steps, r); err != nil {
				return err
			}
			if len(lanes[0].epochs) == churnSimEpochs {
				w.rss = peakRSSMiB()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, l := range lanes {
		w.busy += l.busy
		w.ops += l.ops
	}
	checkAudit(lanes, audit, r)

	if !o.trace {
		r.add("setup_s", "s", median(passes).Seconds(), len(passes))
		reportWindow(r, &w)
		for _, l := range lanes {
			r.add("sim_cycles_per_pkt."+modeKey(l.mode), "cycles",
				ratio(float64(l.simCycles.Now), float64(l.simPkts)), int(l.simPkts))
		}
		err := closeLanes(lanes, nil)
		lanes = nil
		return err
	}

	// Traced run: fresh engines with the same seed and Config, the same
	// number of epochs, the translator and auditor wrapped after warmup.
	epochs := len(lanes[0].epochs)
	untraced := lanes
	err = closeLanes(untraced, &closeTimes)
	lanes = nil
	if err != nil {
		return err
	}
	traced, err := buildLanes(o.seed, audit, &newEngine)
	if err != nil {
		return err
	}
	lanes = traced
	for _, l := range traced {
		l.tr, l.au = &translateSpan{}, &span{}
		eng := l.e.System().Eng
		eng.SetTranslator(timeTranslator(eng.Translator(), l.tr))
		if orc := l.e.System().Auditor; orc != nil {
			eng.SetAudit(timedAuditor{inner: orc, sp: l.au})
		}
	}
	var tw window
	err = tw.measure(func() error {
		for e := 0; e < epochs; e++ {
			if err := runEpoch(traced, &tw.steps, r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, l := range traced {
		tw.busy += l.busy
		tw.ops += l.ops
	}
	checkPurity(untraced, traced, r)
	var livePeak int
	for _, l := range traced {
		if orc := l.e.System().Auditor; orc != nil && orc.LivePeak > livePeak {
			livePeak = orc.LivePeak
		}
	}
	err = closeLanes(traced, &closeTimes)
	lanes = nil
	if err != nil {
		return err
	}

	pl := newPerLayer()
	var verify, translate span
	var checked, pkts uint64
	for _, l := range traced {
		mk := modeKey(l.mode)
		verify.busy += l.au.busy
		verify.calls += l.au.calls
		translate.busy += l.tr.busy
		translate.calls += l.tr.calls
		checked += l.simChecked
		pkts += l.simPkts
		pl.set("traffic.ops_per_s."+mk, ratio(float64(l.ops), l.busy.Seconds()), int(l.ops))
		tlb := subTLB(l.tlb1, l.tlb0)
		lookups := tlb.Hits + tlb.Misses
		pl.set("iotlb.hit_ratio."+mk, ratio(float64(tlb.Hits), float64(lookups)), int(lookups))
		pl.set("iotlb.lookups."+mk, float64(lookups), 1)
		pl.set("iotlb.invalidates."+mk, float64(tlb.Invalidates), 1)
		pl.set("iotlb.global_flushes."+mk, float64(tlb.GlobalFlush), 1)
		hits := l.core1.PrefetchHits - l.core0.PrefetchHits
		fetches := l.core1.TableFetches - l.core0.TableFetches
		pl.set("core.prefetch_hit_ratio."+mk, ratio(float64(hits), float64(hits+fetches)), int(hits+fetches))
		pl.set("core.rpte_loads."+mk, float64(hits+fetches), 1)
		pl.set("core.table_fetches."+mk, float64(fetches), 1)
		pl.set("iova.max_alloc_visits."+mk, float64(l.simDone.MaxAllocVisits), 1)
		pl.set("iova.carved_pages."+mk, float64(l.simDone.CarvedPages), 1)
		pl.set("traffic.map_events_per_pkt."+mk, ratio(float64(l.simMapEvents), float64(l.simPkts)), int(l.simPkts))
		pl.set("dma.bytes_per_pkt."+mk, ratio(float64(l.simDMABytes), float64(l.simPkts)), int(l.simPkts))
		for _, c := range ledgerRows {
			pl.set(cycleName(c, mk), ratio(float64(l.simCycles.Total(c)), float64(l.simPkts)), int(l.simPkts))
		}
		if l.mode == sim.DeferPlus {
			pl.set("audit.violations.deferplus", float64(l.simDone.AuditViolations), 1)
		}
	}
	pl.ms("audit.verify_ms", verify.busy, int(verify.calls))
	pl.set("audit.verify_calls", float64(verify.calls), 1)
	pl.set("audit.checked_per_pkt", ratio(float64(checked), float64(pkts)), int(pkts))
	pl.set("audit.live_peak", float64(livePeak), 1)
	pl.ms("dma.translate_ms", translate.busy, int(translate.calls))
	pl.set("dma.translate_calls", float64(translate.calls), 1)
	pl.ms("traffic.tick_self_ms", tw.busy-verify.busy-translate.busy, len(tw.steps))
	pl.ms("traffic.new_engine_ms", median(newEngine), len(newEngine))
	pl.ms("traffic.close_ms", median(closeTimes), len(closeTimes))
	pl.set("setup.first_s", passes[0].Seconds(), 1)
	reportTrace(pl, &w, &tw)
	return pl.emit(r)
}

// checkAudit fails the run on any audit violation in a gap-free mode; the
// deferred modes' stale windows are expected and only counted.
func checkAudit(lanes []*lane, audit bool, r *report) {
	if !audit {
		return
	}
	for _, l := range lanes {
		if l.mode.Safe() {
			r.check(l.last.AuditViolations == 0, "%s: %d audit violations in a gap-free mode",
				l.mode, l.last.AuditViolations)
		}
	}
}

// checkPurity fails the run unless the traced engines reproduced the
// untraced engines' results at every epoch boundary: the digests, the cycle
// ledger, the packet counts and the oracle's verdicts.
func checkPurity(untraced, traced []*lane, r *report) {
	for i := range untraced {
		u, t := untraced[i], traced[i]
		for e := range u.epochs {
			a, b := u.epochs[e], t.epochs[e]
			r.check(a == b, "%s epoch %d: traced run diverged (map %#x/%#x app %#x/%#x checked %d/%d)",
				u.mode, e, a.MapDigest, b.MapDigest, a.AppDigest, b.AppDigest, a.AuditChecked, b.AuditChecked)
		}
	}
}

func subTLB(a, b iotlb.Stats) iotlb.Stats {
	return iotlb.Stats{
		Hits:        a.Hits - b.Hits,
		Misses:      a.Misses - b.Misses,
		Invalidates: a.Invalidates - b.Invalidates,
		GlobalFlush: a.GlobalFlush - b.GlobalFlush,
	}
}
